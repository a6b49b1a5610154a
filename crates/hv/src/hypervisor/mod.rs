//! The aggregate simulated machine and its micro-op execution loop.
//!
//! A [`Hypervisor`] owns every subsystem (memory, locks, scheduler, timers,
//! interrupts, domains) plus per-CPU runtime state. The simulation advances
//! by stepping the CPU with the smallest local clock; a step is either a
//! slice of guest execution or exactly one hypervisor
//! [`MicroOp`](crate::hypercalls::MicroOp). All the
//! recovery-relevant residue — held locks, interrupt nesting, partial
//! hypercalls, unprogrammed APIC timers — arises from abandoning these
//! micro-op programs mid-flight.
//!
//! The machine is split along its seams:
//!
//! * this file — the machine state, boot, domain construction and the
//!   read-only observers;
//! * `dispatch` — the one batched stepping loop and its stop rules, the
//!   fused and single-step dispatch tiers, and the unbatched reference
//!   loop they are checked against;
//! * `programs` — the handler-program builders (what each interrupt,
//!   hypercall and scheduler entry executes) and request binding;
//! * `exec` — the micro-op interpreter: what each op does to the
//!   subsystems;
//! * `recovery` — the entry points the recovery mechanisms call.

use std::collections::VecDeque;
use std::sync::Arc;

use nlh_sim::{CpuId, DomId, LockId, PageNum, Pcg64, SimDuration, SimTime, VcpuId};

use crate::accounting::CycleAccounting;
use crate::config::{HvTuning, MachineConfig};
use crate::detect::{Detection, DetectionKind};
use crate::domain::{Domain, DomainSpec, DomainState};
use crate::hypercalls::{EntryCause, OpSupport, Program, ProgramPool, UndoEntry};
use crate::interrupts::{IrqSubsystem, VEC_BLK, VEC_NET};
use crate::locks::{LockPlacement, LockRegistry};
use crate::mem::{Heap, HeapObjKind, PageFrameTable, PageState};
use crate::percpu::PerCpu;
use crate::sched::Scheduler;
use crate::timers::{TimerEvent, TimerEventKind, TimerSubsystem};

mod dispatch;
mod exec;
mod programs;
mod recovery;
#[cfg(test)]
mod tests;

pub use dispatch::StopRule;

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
    /// (see [`Hypervisor::run_boot_scrub`]). Nothing mutates it after
    /// boot, so clones of a booted machine share one ledger.
    pub scrub: Option<Arc<crate::mem::ScrubLedger>>,
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
    /// list and pinned-page marks `bind_simple` needs, both empty or
    /// all-zero between binds. Like the program pools, this is host-side
    /// memory reuse only: `pick_n_into` draws the same RNG sequence
    /// regardless of where the output lands.
    binding_pool: Vec<Vec<PageNum>>,
    binding_set_pool: Vec<Vec<Vec<PageNum>>>,
    page_scratch: Vec<PageNum>,
    page_marks: programs::PageMarks,
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
        debug_assert_eq!(heap.allocated_pages(), config.boot_heap_pages());

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
            page_marks: programs::PageMarks::default(),
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
        self.scrub = Some(Arc::new(crate::mem::boot_scrub(self.pft.len())));
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
    #[inline]
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

    /// A deterministic fingerprint of the machine's mutable state.
    ///
    /// Divergence bisection runs two trials to the same step count and
    /// compares fingerprints; the first step at which they differ is where
    /// the executions split. The digest covers everything the step loop
    /// can mutate — clocks, modes, in-flight programs, RNG position,
    /// memory, locks, scheduler, timers, interrupts, domains (including
    /// workload state), undo log, network state, detection — and excludes
    /// host-side bookkeeping that does not affect simulated behaviour
    /// (program pools, the scheduler-pick cache), so a
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
            self.detection = Some(d);
        }
    }

    /// Raises a watchdog hang detection on `cpu`.
    pub fn raise_hang(&mut self, cpu: CpuId, reason: impl Into<String>) {
        if self.detection.is_none() {
            let d = Detection::new(self.cpu_now[cpu.index()], cpu, DetectionKind::Hang, reason);
            self.detection = Some(d);
        }
    }
}
