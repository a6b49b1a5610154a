//! The vCPU scheduler and its redundantly-stored metadata.
//!
//! Xen stores "which vCPU is currently running on each CPU" in **three**
//! places: a per-CPU pointer plus two fields of the per-vCPU structure
//! (Section V-A, "Ensure consistency within scheduling metadata"). The
//! context-switch path updates them in separate steps, so an abandoned
//! execution thread can leave them disagreeing; the scheduler's assertions
//! then fail, or the wrong register context gets restored. NiLiHype's
//! enhancement rebuilds the per-vCPU copies from the per-CPU copy (chosen as
//! the most reliable source).
//!
//! # Two scheduling modes
//!
//! The paper pins one vCPU per physical CPU; that remains the default and
//! every paper campaign runs in it. **Credit mode** (enabled per-machine by
//! [`Scheduler::enable_credit`]) generalizes to N:M overcommit: per-vCPU
//! credit accounting debited by a preemption tick, WFI-style blocking until
//! a virtual interrupt wakes the vCPU, and periodic load balancing that
//! migrates runnable vCPUs between the balance CPUs. All credit-mode
//! transitions execute as abandonable micro-op programs in the hypervisor,
//! so a fault can strike mid-context-switch or mid-migration; the repair
//! pass in [`Scheduler::requeue_runnable`] then has to undo double-queued
//! vCPUs, torn migrations and lost wakeups — far more in-flight state than
//! the pinned model ever exposes.

use std::collections::VecDeque;
use std::fmt;

use nlh_sim::{CpuId, VcpuId};
use serde::{Deserialize, Serialize};

/// `cpu`'s bit in a per-CPU mask such as [`Scheduler::touched`]. Masks
/// cover 64 CPUs; a larger machine's CPUs alias, which only adds spurious
/// bits (the batched loop never jumps CPUs on such a machine).
#[inline]
pub(crate) fn cpu_bit(cpu: CpuId) -> u64 {
    1u64 << (cpu.index() & 63)
}

/// Credits a vCPU starts with when registered.
pub const CREDIT_INIT: i32 = 300;
/// Credits debited from the running vCPU on each scheduler tick.
pub const CREDIT_DEBIT: i32 = 100;
/// Credits every schedulable vCPU on a CPU is reset to when the whole set
/// is exhausted.
pub const CREDIT_REFILL: i32 = 300;
/// Floor a running vCPU's account saturates at (Xen's `over` priority):
/// without it a CPU-bound vCPU running unopposed drifts unboundedly
/// negative and an I/O-bound vCPU waking with leftover positive credits
/// would out-credit it forever.
pub const CREDIT_FLOOR: i32 = -300;

/// Execution state of a vCPU.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum RunState {
    /// Eligible to run, waiting on a runqueue.
    Runnable,
    /// Currently executing on some CPU.
    Running,
    /// Blocked waiting for an event (e.g. an I/O completion). The reason is
    /// recorded separately in [`VcpuSchedInfo::block_reason`].
    Blocked,
    /// Taken offline (domain destroyed or paused for recovery).
    Offline,
}

/// Why a vCPU is parked. Only meaningful while the state is
/// [`RunState::Blocked`] or [`RunState::Offline`]; cleared when the vCPU
/// becomes runnable again.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum BlockReason {
    /// Voluntarily parked (WFI / block hypercall) until a virtual interrupt
    /// or event-channel notification arrives.
    WaitForEvent,
    /// Parked because its domain was taken offline.
    Offline,
}

/// Per-vCPU scheduling metadata — including the two *redundant* copies of
/// "where am I running".
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct VcpuSchedInfo {
    /// Coarse execution state.
    pub state: RunState,
    /// Redundant copy #1: the CPU this vCPU believes it is running on.
    pub running_on: Option<CpuId>,
    /// Redundant copy #2: whether this vCPU believes it is the current one.
    pub is_current: bool,
    /// The physical CPU this vCPU is assigned to. In the default pinned
    /// model this never changes; in credit mode load balancing migrates it
    /// between the balance CPUs.
    pub pinned_to: CpuId,
    /// Credit-mode account; ignored in the pinned model.
    pub credits: i32,
    /// A wakeup arrived while the vCPU was blocked and the wake path could
    /// not (or might not) complete — e.g. during recovery. Consumed by
    /// [`Scheduler::requeue_runnable`] and by [`Scheduler::enqueue`].
    pub pending_wake: bool,
    /// Why the vCPU is parked, when it is.
    pub block_reason: Option<BlockReason>,
}

/// A scheduling-metadata inconsistency found by [`Scheduler::check_consistency`].
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SchedInconsistency {
    /// The CPU whose view disagrees.
    pub cpu: CpuId,
    /// Description of the disagreement (mirrors a Xen `ASSERT` message).
    pub detail: String,
}

/// The scheduler: per-CPU runqueues, the per-CPU current pointer, and
/// per-vCPU metadata.
#[derive(Clone, Serialize, Deserialize)]
pub struct Scheduler {
    runqueues: Vec<VecDeque<VcpuId>>,
    /// Per-CPU "current vCPU" — the source of truth recovery trusts.
    current: Vec<Option<VcpuId>>,
    vcpus: Vec<VcpuSchedInfo>,
    /// Credit (N:M overcommit) mode switch. Off by default: the paper's
    /// pinned model, which draws no extra RNG and takes no extra micro-ops.
    credit_mode: bool,
    /// CPUs the load balancer may migrate vCPUs between (credit mode only).
    balance_cpus: Vec<CpuId>,
    /// Per-CPU "a higher-credit vCPU is waiting" flag, set by the tick and
    /// consumed by the hypervisor's run loop to build a switch program.
    resched: Vec<bool>,
    /// At most one load-balancing migration in flight at a time
    /// (vCPU, from-CPU, to-CPU), consumed by the from-CPU's run loop.
    pending_migration: Option<(VcpuId, CpuId, CpuId)>,
    /// Generation counter for the pick cache below; bumped by every
    /// mutation that can change a `peek_next` result.
    cache_gen: u64,
    /// Per-CPU cached `peek_next` result: (generation it was computed at,
    /// value). Excluded from `Debug` so state digests ignore it — the cache
    /// is never observable behaviour, as `cached_pick` always equals a
    /// fresh scan (pinned by a differential proptest).
    pick_cache: Vec<(u64, Option<VcpuId>)>,
    /// Per-CPU wake-input mask (bit `i` for CPU `i`): set by every
    /// mutation that can change CPU `i`'s current pointer, runqueue pick or
    /// credit flags (the interrupt controller keeps the same mask for its
    /// raises and route writes). Host-only like the pick cache: the batched
    /// loop reads it to re-check the idle CPUs it has jumped ahead, and a
    /// spurious bit costs a rewind, never a result.
    touched: u64,
    /// Per-vCPU mask of the runqueues that hold it (bit `i` for CPU `i`),
    /// kept by every runqueue push and removal so that `vcpu_cpus` needs
    /// no scan. Host-only like the pick cache, and out of `Debug` with it.
    queued_on: Vec<u64>,
}

// Hand-written so the pick cache stays out of the Debug output (and thus
// out of `Hypervisor::state_digest`), while every behavioural field —
// including the credit-mode ones — stays in.
impl fmt::Debug for Scheduler {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Scheduler")
            .field("runqueues", &self.runqueues)
            .field("current", &self.current)
            .field("vcpus", &self.vcpus)
            .field("credit_mode", &self.credit_mode)
            .field("balance_cpus", &self.balance_cpus)
            .field("resched", &self.resched)
            .field("pending_migration", &self.pending_migration)
            .finish()
    }
}

impl Scheduler {
    /// A scheduler for `num_cpus` CPUs with no vCPUs yet.
    pub fn new(num_cpus: usize) -> Self {
        Scheduler {
            runqueues: vec![VecDeque::new(); num_cpus],
            current: vec![None; num_cpus],
            vcpus: Vec::new(),
            credit_mode: false,
            balance_cpus: Vec::new(),
            resched: vec![false; num_cpus],
            pending_migration: None,
            cache_gen: 1,
            pick_cache: vec![(0, None); num_cpus],
            touched: 0,
            queued_on: Vec::new(),
        }
    }

    /// Invalidate every cached pick and mark the CPUs in `cpus` touched
    /// (any mutation that can change what `peek_next` returns must call
    /// this, naming every CPU whose pick it can change).
    fn bump(&mut self, cpus: u64) {
        self.cache_gen = self.cache_gen.wrapping_add(1);
        self.touched |= cpus;
    }

    /// The CPUs whose pick `vcpu`'s scheduling state feeds: its home CPU
    /// (where an enqueue lands) and every CPU whose runqueue holds it (a
    /// torn migration or a corrupted home can leave it on two).
    fn vcpu_cpus(&self, vcpu: VcpuId) -> u64 {
        let home = self
            .vcpus
            .get(vcpu.index())
            .map_or(0, |info| cpu_bit(info.pinned_to));
        let queued = self.queued_on.get(vcpu.index()).copied().unwrap_or(0);
        debug_assert!(
            self.runqueues.len() > 64 || queued == self.scan_queued_on(vcpu),
            "queued-on mask of {vcpu}"
        );
        home | queued
    }

    /// The runqueues that hold `vcpu`, by scanning them all: the reference
    /// for the `queued_on` mask.
    fn scan_queued_on(&self, vcpu: VcpuId) -> u64 {
        let mut mask = 0;
        for (c, rq) in self.runqueues.iter().enumerate() {
            if rq.contains(&vcpu) {
                mask |= cpu_bit(CpuId::from_index(c));
            }
        }
        mask
    }

    /// Appends `vcpu` to `cpu`'s runqueue unless it is there already;
    /// whether it was not.
    fn push_queued(&mut self, vcpu: VcpuId, cpu: CpuId) -> bool {
        let rq = &mut self.runqueues[cpu.index()];
        let absent = !rq.contains(&vcpu);
        if absent {
            rq.push_back(vcpu);
            self.queued_on[vcpu.index()] |= cpu_bit(cpu);
        }
        absent
    }

    /// Removes `vcpu` from `cpu`'s runqueue.
    fn remove_queued(&mut self, vcpu: VcpuId, cpu: CpuId) {
        self.runqueues[cpu.index()].retain(|v| *v != vcpu);
        self.queued_on[vcpu.index()] &= !cpu_bit(cpu);
    }

    /// The wake-input mask (see the field docs): the CPUs touched since
    /// their bit was last cleared with [`Scheduler::clear_touched`].
    #[inline]
    pub(crate) fn touched(&self) -> u64 {
        self.touched
    }

    /// Clears the touched bits of the CPUs in `cpus`.
    #[inline]
    pub(crate) fn clear_touched(&mut self, cpus: u64) {
        self.touched &= !cpus;
    }

    /// The mutation-generation counter — bumped by every state change that
    /// could alter a scheduling decision. Tests use it as a cheap "the
    /// scheduler actually did work in this window" witness.
    pub fn mutation_generation(&self) -> u64 {
        self.cache_gen
    }

    /// Switches the scheduler into credit (N:M overcommit) mode. The load
    /// balancer migrates runnable vCPUs between `cpus` only, so CPUs
    /// outside the set (e.g. the PrivVM's CPU 0) keep their pinned vCPUs.
    pub fn enable_credit(&mut self, cpus: &[CpuId]) {
        self.bump(u64::MAX);
        self.credit_mode = true;
        self.balance_cpus = cpus.to_vec();
    }

    /// Whether credit (overcommit) mode is on.
    pub fn credit_mode(&self) -> bool {
        self.credit_mode
    }

    /// Registers vCPU number `vcpu` assigned to `cpu`, initially runnable.
    ///
    /// vCPU ids are issued by the domain layer; they must be registered here
    /// in id order.
    pub fn register_vcpu(&mut self, vcpu: VcpuId, cpu: CpuId) {
        assert_eq!(
            vcpu.index(),
            self.vcpus.len(),
            "vCPUs must be registered in id order"
        );
        self.bump(cpu_bit(cpu));
        self.vcpus.push(VcpuSchedInfo {
            state: RunState::Runnable,
            running_on: None,
            is_current: false,
            pinned_to: cpu,
            credits: CREDIT_INIT,
            pending_wake: false,
            block_reason: None,
        });
        self.queued_on.push(0);
        self.push_queued(vcpu, cpu);
    }

    /// Number of registered vCPUs.
    pub fn num_vcpus(&self) -> usize {
        self.vcpus.len()
    }

    /// Metadata for `vcpu`.
    pub fn vcpu(&self, vcpu: VcpuId) -> &VcpuSchedInfo {
        &self.vcpus[vcpu.index()]
    }

    /// Mutable metadata for `vcpu` (fault-injection and recovery surface).
    pub fn vcpu_mut(&mut self, vcpu: VcpuId) -> &mut VcpuSchedInfo {
        self.bump(u64::MAX);
        &mut self.vcpus[vcpu.index()]
    }

    /// The per-CPU current pointer.
    pub fn current(&self, cpu: CpuId) -> Option<VcpuId> {
        self.current[cpu.index()]
    }

    /// The next runnable vCPU for `cpu` (peek; pure reference scan).
    ///
    /// Pinned model: the first runnable vCPU in queue order. Credit mode:
    /// the runnable vCPU with the most credits, queue order breaking ties.
    pub fn peek_next(&self, cpu: CpuId) -> Option<VcpuId> {
        let rq = &self.runqueues[cpu.index()];
        if !self.credit_mode {
            return rq
                .iter()
                .copied()
                .find(|v| self.vcpus[v.index()].state == RunState::Runnable);
        }
        let mut best: Option<VcpuId> = None;
        for &v in rq {
            if self.vcpus[v.index()].state != RunState::Runnable {
                continue;
            }
            match best {
                Some(b) if self.vcpus[v.index()].credits <= self.vcpus[b.index()].credits => {}
                _ => best = Some(v),
            }
        }
        best
    }

    /// Cache-served [`Scheduler::peek_next`]: the hot idle/switch paths call
    /// this every step, so the scan result is memoized per CPU and
    /// invalidated (generation bump) by every mutation that could change
    /// it — enqueue, dequeue, block, wake, tick, migration, repair.
    pub fn cached_pick(&mut self, cpu: CpuId) -> Option<VcpuId> {
        let i = cpu.index();
        let (gen, val) = self.pick_cache[i];
        if gen == self.cache_gen {
            return val;
        }
        let fresh = self.peek_next(cpu);
        self.pick_cache[i] = (self.cache_gen, fresh);
        fresh
    }

    // --- The three context-switch sub-steps. ---
    //
    // The context-switch path in the hypervisor executes these as *separate
    // micro-ops*; a fault between any two leaves the metadata inconsistent.

    /// Context-switch step 1: update the per-CPU current pointer.
    pub fn cs_set_percpu_current(&mut self, cpu: CpuId, vcpu: Option<VcpuId>) {
        self.touched |= cpu_bit(cpu);
        self.current[cpu.index()] = vcpu;
    }

    /// Context-switch step 2: update the vCPU's `running_on` field.
    pub fn cs_set_running_on(&mut self, vcpu: VcpuId, cpu: Option<CpuId>) {
        self.vcpus[vcpu.index()].running_on = cpu;
    }

    /// Context-switch step 3: update the vCPU's `is_current` flag and state.
    pub fn cs_set_is_current(&mut self, vcpu: VcpuId, is_current: bool) {
        self.bump(self.vcpu_cpus(vcpu));
        let info = &mut self.vcpus[vcpu.index()];
        info.is_current = is_current;
        info.state = if is_current {
            info.block_reason = None;
            RunState::Running
        } else if info.state == RunState::Running {
            RunState::Runnable
        } else {
            info.state
        };
    }

    /// Dequeues `vcpu` from its runqueue (it is about to run).
    pub fn dequeue(&mut self, vcpu: VcpuId) {
        self.bump(self.vcpu_cpus(vcpu));
        let cpu = self.vcpus[vcpu.index()].pinned_to;
        self.remove_queued(vcpu, cpu);
    }

    /// Enqueues `vcpu` on its assigned CPU's runqueue and marks it runnable.
    pub fn enqueue(&mut self, vcpu: VcpuId) {
        self.bump(self.vcpu_cpus(vcpu));
        let cpu = self.vcpus[vcpu.index()].pinned_to;
        self.push_queued(vcpu, cpu);
        let info = &mut self.vcpus[vcpu.index()];
        if info.state != RunState::Offline {
            info.state = RunState::Runnable;
            info.pending_wake = false;
            info.block_reason = None;
        }
    }

    /// Blocks `vcpu` (WFI-style: parked until a virtual interrupt or event
    /// wakes it).
    pub fn block(&mut self, vcpu: VcpuId) {
        self.bump(self.vcpu_cpus(vcpu));
        let info = &mut self.vcpus[vcpu.index()];
        info.state = RunState::Blocked;
        info.block_reason = Some(BlockReason::WaitForEvent);
        // Credit mode charges the partial timeslice on a voluntary block
        // (as Xen does on deschedule). Without it an I/O-bound vCPU that
        // always blocks between two ticks is never debited, wakes with
        // positive credits forever, and permanently out-credits every
        // CPU-bound vCPU parked at the floor.
        if self.credit_mode {
            info.credits = (info.credits - CREDIT_DEBIT).max(CREDIT_FLOOR);
        }
    }

    /// Records that a wakeup arrived for a blocked vCPU while the normal
    /// wake path could not be trusted to complete (e.g. mid-recovery).
    /// Never set on offline vCPUs, so a mid-teardown interrupt cannot
    /// resurrect one. Consumed by [`Scheduler::requeue_runnable`].
    pub fn note_pending_wake(&mut self, vcpu: VcpuId) {
        let info = &mut self.vcpus[vcpu.index()];
        if info.state == RunState::Blocked {
            info.pending_wake = true;
        }
    }

    /// Unregisters all vCPUs of a destroyed domain, given their ids.
    pub fn offline_vcpus(&mut self, vcpus: &[VcpuId]) {
        self.bump(u64::MAX);
        for &v in vcpus {
            self.vcpus[v.index()].state = RunState::Offline;
            self.vcpus[v.index()].is_current = false;
            self.vcpus[v.index()].running_on = None;
            self.vcpus[v.index()].pending_wake = false;
            self.vcpus[v.index()].block_reason = Some(BlockReason::Offline);
            for c in 0..self.runqueues.len() {
                self.remove_queued(v, CpuId::from_index(c));
            }
            for cur in &mut self.current {
                if *cur == Some(v) {
                    *cur = None;
                }
            }
        }
    }

    // --- Credit-mode accounting, preemption and load balancing. ---

    /// The scheduler-tick micro-op body (`MicroOp::SchedCreditTick`): debit
    /// the running vCPU, refill the active set when exhausted, flag a
    /// preemption if a higher-credit vCPU waits, and propose at most one
    /// load-balancing migration from the most- to the least-loaded balance
    /// CPU. Deterministic; draws no RNG; allocation-free.
    pub fn credit_tick(&mut self, cpu: CpuId) {
        if !self.credit_mode {
            return;
        }
        // Credits move on this CPU's current and queued vCPUs, which
        // feed the pick of every CPU whose runqueue holds one.
        let mut touched = cpu_bit(cpu);
        if let Some(v) = self.current[cpu.index()] {
            touched |= self.vcpu_cpus(v);
        }
        for &v in &self.runqueues[cpu.index()] {
            touched |= self.vcpu_cpus(v);
        }
        self.bump(touched);
        if let Some(v) = self.current[cpu.index()] {
            let c = &mut self.vcpus[v.index()].credits;
            *c = (*c - CREDIT_DEBIT).max(CREDIT_FLOOR);
        }
        // Refill when this CPU's schedulable set — current plus its queued
        // runnables — is out of credits, so relative order is preserved but
        // rotation continues. Per-CPU on purpose: vCPUs elsewhere that
        // rotate by blocking (I/O-bound guests) retain positive credits
        // indefinitely, and a global condition would therefore never fire,
        // letting one CPU-bound vCPU monopolize its CPU forever.
        let Scheduler {
            runqueues,
            vcpus,
            current,
            ..
        } = self;
        let cur = current[cpu.index()];
        let mut any_active = cur.is_some();
        let mut all_exhausted = cur.is_none_or(|v| vcpus[v.index()].credits <= 0);
        for v in runqueues[cpu.index()].iter() {
            let info = &vcpus[v.index()];
            if info.state == RunState::Runnable && !info.is_current {
                any_active = true;
                if info.credits > 0 {
                    all_exhausted = false;
                }
            }
        }
        if any_active && all_exhausted {
            // Reset (not add): converges in one tick from the floor, and
            // equal credits make the subsequent rotation pure queue order.
            if let Some(v) = cur {
                vcpus[v.index()].credits = CREDIT_REFILL;
            }
            for v in runqueues[cpu.index()].iter() {
                let info = &mut vcpus[v.index()];
                if info.state == RunState::Runnable && !info.is_current {
                    info.credits = CREDIT_REFILL;
                }
            }
        }
        // Preemption: does a queued runnable vCPU now out-credit current?
        if let Some(cur) = self.current[cpu.index()] {
            let cur_credits = self.vcpus[cur.index()].credits;
            let waiting_better = self.runqueues[cpu.index()].iter().any(|v| {
                let info = &self.vcpus[v.index()];
                info.state == RunState::Runnable && info.credits > cur_credits
            });
            if waiting_better {
                self.resched[cpu.index()] = true;
            }
        }
        // Load balancing: one migration in flight at a time (so the
        // migration program never deadlocks against a second one over the
        // two runqueue locks it holds).
        if self.pending_migration.is_none() && self.balance_cpus.len() >= 2 {
            let (mut max_c, mut min_c) = (self.balance_cpus[0], self.balance_cpus[0]);
            let (mut max_l, mut min_l) = (usize::MIN, usize::MAX);
            for &c in &self.balance_cpus {
                let load = self.queued_runnable(c);
                if load > max_l {
                    max_l = load;
                    max_c = c;
                }
                if load < min_l {
                    min_l = load;
                    min_c = c;
                }
            }
            if max_l >= min_l + 2 {
                // Migrate the coldest (tail) queued runnable vCPU.
                let victim = self.runqueues[max_c.index()]
                    .iter()
                    .rev()
                    .copied()
                    .find(|v| {
                        let info = &self.vcpus[v.index()];
                        info.state == RunState::Runnable && !info.is_current
                    });
                if let Some(v) = victim {
                    self.pending_migration = Some((v, max_c, min_c));
                    self.touched |= cpu_bit(max_c);
                }
            }
        }
    }

    /// Consumes the per-CPU resched flag (set by the credit tick); the run
    /// loop builds a context-switch program when this returns true.
    pub fn take_resched(&mut self, cpu: CpuId) -> bool {
        std::mem::take(&mut self.resched[cpu.index()])
    }

    /// Consumes the pending migration if its source CPU is `cpu` (the
    /// source CPU executes the migration program).
    pub fn take_pending_migration(&mut self, cpu: CpuId) -> Option<(VcpuId, CpuId, CpuId)> {
        match self.pending_migration {
            Some((_, from, _)) if from == cpu => self.pending_migration.take(),
            _ => None,
        }
    }

    /// Non-consuming [`Scheduler::take_resched`]: whether the resched flag
    /// is raised for `cpu`. The superop idle window uses this to prove a
    /// CPU's next steps stay idle without disturbing the flag.
    pub fn peek_resched(&self, cpu: CpuId) -> bool {
        self.resched[cpu.index()]
    }

    /// Non-consuming [`Scheduler::take_pending_migration`]: whether a
    /// pending migration is waiting on `cpu` as its source.
    pub fn peek_pending_migration(&self, cpu: CpuId) -> bool {
        matches!(self.pending_migration, Some((_, from, _)) if from == cpu)
    }

    /// Migration step 1 (`MicroOp::SchedMigrateEnqueue`): the vCPU joins the
    /// destination queue *before* leaving the source one — the transient
    /// double-queued window a fault can freeze, which repair must clear.
    pub fn migrate_enqueue(&mut self, v: VcpuId, to: CpuId) {
        self.bump(self.vcpu_cpus(v) | cpu_bit(to));
        if self.vcpus[v.index()].state == RunState::Offline {
            return;
        }
        self.push_queued(v, to);
    }

    /// Migration step 2 (`MicroOp::SchedMigrateDequeue`): leave the source
    /// queue.
    pub fn migrate_dequeue(&mut self, v: VcpuId, from: CpuId) {
        self.bump(self.vcpu_cpus(v) | cpu_bit(from));
        self.remove_queued(v, from);
    }

    /// Migration step 3 (`MicroOp::SchedSetAssigned`): the vCPU's home CPU
    /// becomes the destination.
    pub fn set_assigned(&mut self, v: VcpuId, to: CpuId) {
        self.bump(self.vcpu_cpus(v) | cpu_bit(to));
        if self.vcpus[v.index()].state == RunState::Offline {
            return;
        }
        self.vcpus[v.index()].pinned_to = to;
    }

    /// Queued, runnable, non-current vCPUs on `cpu` — the load metric.
    pub fn queued_runnable(&self, cpu: CpuId) -> usize {
        self.runqueues[cpu.index()]
            .iter()
            .filter(|v| {
                let info = &self.vcpus[v.index()];
                info.state == RunState::Runnable && !info.is_current
            })
            .count()
    }

    /// How many runqueue entries reference `vcpu` across all CPUs (exactly
    /// one for a queued runnable vCPU in a consistent state; invariant
    /// tests use this).
    pub fn queue_occurrences(&self, vcpu: VcpuId) -> usize {
        self.runqueues
            .iter()
            .map(|rq| rq.iter().filter(|v| **v == vcpu).count())
            .sum()
    }

    /// Verifies the three redundant copies agree for `cpu` — the check the
    /// scheduler's assertions perform on every scheduling decision.
    ///
    /// # Errors
    ///
    /// Returns the first inconsistency found (which, in the real hypervisor,
    /// is an `ASSERT` failure — i.e. a hypervisor panic).
    pub fn check_consistency(&self, cpu: CpuId) -> Result<(), SchedInconsistency> {
        let cur = self.current[cpu.index()];
        if let Some(v) = cur {
            let info = &self.vcpus[v.index()];
            if info.running_on != Some(cpu) {
                return Err(SchedInconsistency {
                    cpu,
                    detail: format!(
                        "percpu current={v} but {v}.running_on={:?}",
                        info.running_on
                    ),
                });
            }
            if !info.is_current {
                return Err(SchedInconsistency {
                    cpu,
                    detail: format!("percpu current={v} but {v}.is_current=false"),
                });
            }
        }
        // No other vCPU may claim to be current on this CPU.
        for (i, info) in self.vcpus.iter().enumerate() {
            let v = VcpuId::from_index(i);
            if Some(v) != cur && info.running_on == Some(cpu) && info.is_current {
                return Err(SchedInconsistency {
                    cpu,
                    detail: format!("{v} claims cpu but percpu current={cur:?}"),
                });
            }
        }
        Ok(())
    }

    /// NiLiHype's "ensure consistency within scheduling metadata"
    /// enhancement: rebuild every per-vCPU copy from the per-CPU copies.
    /// Returns the number of fields repaired.
    pub fn make_consistent_from_percpu(&mut self) -> usize {
        self.bump(u64::MAX);
        let mut fixed = 0;
        // The per-CPU copies are the chosen source of truth, but they can
        // themselves be conflicted after corruption (two CPUs claiming one
        // vCPU, or a claim on an offline vCPU): keep the first claim, drop
        // the rest.
        let mut seen: Vec<VcpuId> = Vec::new();
        for c in 0..self.current.len() {
            if let Some(v) = self.current[c] {
                let offline = self
                    .vcpus
                    .get(v.index())
                    .map(|i| i.state == RunState::Offline)
                    .unwrap_or(true);
                if seen.contains(&v) || offline {
                    self.current[c] = None;
                    fixed += 1;
                } else {
                    seen.push(v);
                }
            }
        }
        let current = self.current.clone();
        for (i, info) in self.vcpus.iter_mut().enumerate() {
            let v = VcpuId::from_index(i);
            let claimed: Option<CpuId> = current
                .iter()
                .enumerate()
                .find(|(_, c)| **c == Some(v))
                .map(|(c, _)| CpuId::from_index(c));
            let want_running_on = claimed;
            let want_is_current = claimed.is_some();
            if info.running_on != want_running_on {
                info.running_on = want_running_on;
                fixed += 1;
            }
            if info.is_current != want_is_current {
                info.is_current = want_is_current;
                fixed += 1;
            }
            if want_is_current && info.state != RunState::Running && info.state != RunState::Offline
            {
                info.state = RunState::Running;
                fixed += 1;
            }
            if !want_is_current && info.state == RunState::Running {
                info.state = RunState::Runnable;
                fixed += 1;
            }
        }
        fixed
    }

    /// Re-enqueues every runnable, non-current vCPU that fell off its
    /// runqueue (e.g. a vCPU descheduled by an abandoned context switch).
    /// Returns how many repairs were made. Run by recovery after
    /// [`Scheduler::make_consistent_from_percpu`].
    ///
    /// In credit mode this additionally (a) consumes pending-wake bits —
    /// a blocked vCPU whose wakeup was lost to recovery becomes runnable —
    /// and (b) canonicalizes queue membership, clearing double-queued
    /// vCPUs, torn migrations (queued on a CPU that is not their assigned
    /// one) and queued-but-running entries.
    pub fn requeue_runnable(&mut self) -> usize {
        self.bump(u64::MAX);
        let mut fixed = 0;
        if self.credit_mode {
            // Lost-wakeup repair: the wake landed while the wake path could
            // not complete; honour it now. Offline vCPUs never wake.
            for info in self.vcpus.iter_mut() {
                if info.pending_wake && info.state == RunState::Blocked {
                    info.state = RunState::Runnable;
                    info.block_reason = None;
                    fixed += 1;
                }
                if info.state != RunState::Blocked {
                    info.pending_wake = false;
                }
            }
            // Canonicalize: each vCPU at most once, on its assigned CPU's
            // queue, only while runnable and not current.
            let Scheduler {
                runqueues,
                vcpus,
                queued_on,
                ..
            } = self;
            let mut kept = vec![false; vcpus.len()];
            for (c, rq) in runqueues.iter_mut().enumerate() {
                let before = rq.len();
                rq.retain(|v| {
                    let info = &vcpus[v.index()];
                    let keep = info.state == RunState::Runnable
                        && !info.is_current
                        && info.pinned_to.index() == c
                        && !kept[v.index()];
                    if keep {
                        kept[v.index()] = true;
                    } else {
                        queued_on[v.index()] &= !cpu_bit(CpuId::from_index(c));
                    }
                    keep
                });
                fixed += before - rq.len();
            }
            // A stale migration proposal may reference a vCPU that is no
            // longer runnable or no longer on the source CPU; drop it.
            if let Some((v, from, _)) = self.pending_migration {
                let info = &self.vcpus[v.index()];
                if info.state != RunState::Runnable || info.pinned_to != from {
                    self.pending_migration = None;
                    fixed += 1;
                }
            }
        }
        for i in 0..self.vcpus.len() {
            let v = VcpuId::from_index(i);
            let info = self.vcpus[i];
            if info.state == RunState::Runnable
                && !info.is_current
                && self.push_queued(v, info.pinned_to)
            {
                fixed += 1;
            }
        }
        fixed
    }

    /// Checks every CPU's consistency; used by invariant tests.
    pub fn check_all(&self) -> Result<(), SchedInconsistency> {
        for c in 0..self.current.len() {
            self.check_consistency(CpuId::from_index(c))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sched_with(n_cpu: usize, n_vcpu: usize) -> Scheduler {
        let mut s = Scheduler::new(n_cpu);
        for i in 0..n_vcpu {
            s.register_vcpu(VcpuId::from_index(i), CpuId::from_index(i));
        }
        s
    }

    /// A credit-mode scheduler: `n_vcpu` vCPUs spread over CPUs 1 and 2
    /// (CPU 0 stays out of the balance set, like the PrivVM's CPU).
    fn credit_sched(n_cpu: usize, n_vcpu: usize) -> Scheduler {
        let mut s = Scheduler::new(n_cpu);
        s.enable_credit(&[CpuId(1), CpuId(2)]);
        for i in 0..n_vcpu {
            s.register_vcpu(VcpuId::from_index(i), CpuId(1 + (i as u32) % 2));
        }
        s
    }

    /// Runs the full three-step context switch to `vcpu` on `cpu`.
    fn full_switch(s: &mut Scheduler, cpu: CpuId, vcpu: VcpuId) {
        s.dequeue(vcpu);
        s.cs_set_percpu_current(cpu, Some(vcpu));
        s.cs_set_running_on(vcpu, Some(cpu));
        s.cs_set_is_current(vcpu, true);
    }

    #[test]
    fn full_context_switch_is_consistent() {
        let mut s = sched_with(2, 2);
        full_switch(&mut s, CpuId(0), VcpuId(0));
        assert!(s.check_consistency(CpuId(0)).is_ok());
        assert_eq!(s.current(CpuId(0)), Some(VcpuId(0)));
        assert_eq!(s.vcpu(VcpuId(0)).state, RunState::Running);
    }

    #[test]
    fn partial_context_switch_is_inconsistent() {
        let mut s = sched_with(2, 2);
        // Fault strikes after step 1 of 3.
        s.cs_set_percpu_current(CpuId(0), Some(VcpuId(0)));
        let err = s.check_consistency(CpuId(0)).unwrap_err();
        assert!(err.detail.contains("running_on"), "{}", err.detail);
    }

    #[test]
    fn partial_switch_after_step2_still_inconsistent() {
        let mut s = sched_with(2, 2);
        s.cs_set_percpu_current(CpuId(0), Some(VcpuId(0)));
        s.cs_set_running_on(VcpuId(0), Some(CpuId(0)));
        let err = s.check_consistency(CpuId(0)).unwrap_err();
        assert!(err.detail.contains("is_current"), "{}", err.detail);
    }

    #[test]
    fn make_consistent_repairs_partial_switch() {
        let mut s = sched_with(2, 2);
        s.cs_set_percpu_current(CpuId(0), Some(VcpuId(0)));
        assert!(s.check_consistency(CpuId(0)).is_err());
        let fixed = s.make_consistent_from_percpu();
        assert!(fixed >= 2, "repaired running_on and is_current: {fixed}");
        assert!(s.check_all().is_ok());
        assert_eq!(s.vcpu(VcpuId(0)).running_on, Some(CpuId(0)));
    }

    #[test]
    fn make_consistent_clears_stale_claim() {
        let mut s = sched_with(2, 2);
        full_switch(&mut s, CpuId(1), VcpuId(1));
        // Corrupt: vCPU 0 claims CPU 1 too.
        s.cs_set_running_on(VcpuId(0), Some(CpuId(1)));
        s.cs_set_is_current(VcpuId(0), true);
        assert!(s.check_consistency(CpuId(1)).is_err());
        s.make_consistent_from_percpu();
        assert!(s.check_all().is_ok());
        assert!(!s.vcpu(VcpuId(0)).is_current);
        assert!(s.vcpu(VcpuId(1)).is_current);
    }

    #[test]
    fn make_consistent_is_idempotent() {
        let mut s = sched_with(4, 4);
        full_switch(&mut s, CpuId(2), VcpuId(2));
        s.cs_set_percpu_current(CpuId(3), Some(VcpuId(3)));
        s.make_consistent_from_percpu();
        assert_eq!(s.make_consistent_from_percpu(), 0);
    }

    #[test]
    fn peek_next_respects_runnable_only() {
        let mut s = sched_with(2, 2);
        assert_eq!(s.peek_next(CpuId(0)), Some(VcpuId(0)));
        s.block(VcpuId(0));
        assert_eq!(s.peek_next(CpuId(0)), None);
        s.enqueue(VcpuId(0));
        assert_eq!(s.peek_next(CpuId(0)), Some(VcpuId(0)));
    }

    #[test]
    fn enqueue_is_idempotent() {
        let mut s = sched_with(1, 1);
        s.enqueue(VcpuId(0));
        s.enqueue(VcpuId(0));
        s.dequeue(VcpuId(0));
        assert_eq!(s.peek_next(CpuId(0)), None, "no duplicate entries");
    }

    #[test]
    fn offline_removes_all_traces() {
        let mut s = sched_with(2, 2);
        full_switch(&mut s, CpuId(0), VcpuId(0));
        s.offline_vcpus(&[VcpuId(0)]);
        assert_eq!(s.current(CpuId(0)), None);
        assert_eq!(s.vcpu(VcpuId(0)).state, RunState::Offline);
        assert!(s.check_all().is_ok());
        // Offline vCPUs stay offline through enqueue attempts.
        s.enqueue(VcpuId(0));
        assert_eq!(s.vcpu(VcpuId(0)).state, RunState::Offline);
    }

    // --- Credit-mode tests. ---

    #[test]
    fn credit_pick_prefers_highest_credits_with_queue_order_tiebreak() {
        let mut s = credit_sched(4, 4);
        // CPU 1's queue holds vCPUs 0 and 2, both at CREDIT_INIT: queue
        // order breaks the tie.
        assert_eq!(s.peek_next(CpuId(1)), Some(VcpuId(0)));
        s.vcpu_mut(VcpuId(2)).credits += 1;
        assert_eq!(s.peek_next(CpuId(1)), Some(VcpuId(2)));
    }

    #[test]
    fn credit_tick_debits_refills_and_preempts() {
        let mut s = credit_sched(4, 4);
        full_switch(&mut s, CpuId(1), VcpuId(0));
        // First tick: current drops to 200, vCPU 2 still at 300 => resched.
        s.credit_tick(CpuId(1));
        assert_eq!(s.vcpu(VcpuId(0)).credits, CREDIT_INIT - CREDIT_DEBIT);
        assert!(s.take_resched(CpuId(1)), "higher-credit waiter preempts");
        assert!(!s.take_resched(CpuId(1)), "flag is consumed");
        // Exhaust everyone: the refill lifts the whole active set.
        for info_id in 0..4 {
            s.vcpu_mut(VcpuId(info_id)).credits = 0;
        }
        s.credit_tick(CpuId(1));
        assert!(
            s.vcpu(VcpuId(2)).credits > 0,
            "refill restores credits to queued vCPUs"
        );
    }

    #[test]
    fn credit_tick_proposes_migration_on_imbalance() {
        let mut s = Scheduler::new(4);
        s.enable_credit(&[CpuId(1), CpuId(2)]);
        // Three vCPUs on CPU 1, none on CPU 2 — imbalance of 3.
        for i in 0..3 {
            s.register_vcpu(VcpuId(i), CpuId(1));
        }
        s.credit_tick(CpuId(1));
        let (v, from, to) = s
            .take_pending_migration(CpuId(1))
            .expect("imbalance proposes a migration");
        assert_eq!(from, CpuId(1));
        assert_eq!(to, CpuId(2));
        assert_eq!(v, VcpuId(2), "the tail (coldest) vCPU migrates");
    }

    #[test]
    fn migration_is_consumed_only_by_the_source_cpu() {
        let mut s = Scheduler::new(4);
        s.enable_credit(&[CpuId(1), CpuId(2)]);
        for i in 0..3 {
            s.register_vcpu(VcpuId(i), CpuId(1));
        }
        s.credit_tick(CpuId(1));
        assert!(s.take_pending_migration(CpuId(2)).is_none());
        assert!(s.take_pending_migration(CpuId(1)).is_some());
    }

    #[test]
    fn torn_migration_double_queue_is_repaired() {
        let mut s = credit_sched(4, 4);
        // Migration of vCPU 0 from CPU 1 to CPU 2, abandoned after step 1:
        // the vCPU is now on both queues.
        s.migrate_enqueue(VcpuId(0), CpuId(2));
        assert_eq!(s.queue_occurrences(VcpuId(0)), 2);
        s.make_consistent_from_percpu();
        s.requeue_runnable();
        assert_eq!(s.queue_occurrences(VcpuId(0)), 1, "double-queue cleared");
        assert_eq!(s.vcpu(VcpuId(0)).pinned_to, CpuId(1), "still assigned home");
        assert!(s.check_all().is_ok());
    }

    #[test]
    fn torn_migration_dropped_from_both_queues_is_repaired() {
        let mut s = credit_sched(4, 4);
        // Abandoned between dequeue and set_assigned: enqueued on 2,
        // dequeued from 1, but still assigned to 1 — the canonical pass
        // strips the wrong-queue entry and the requeue pass restores it.
        s.migrate_enqueue(VcpuId(0), CpuId(2));
        s.migrate_dequeue(VcpuId(0), CpuId(1));
        s.requeue_runnable();
        assert_eq!(s.queue_occurrences(VcpuId(0)), 1);
        // Restored at the tail of its home queue (vCPU 2 was already there
        // and wins the equal-credit queue-order tiebreak).
        assert!(s.runqueues[CpuId(1).index()].contains(&VcpuId(0)));
        assert!(!s.runqueues[CpuId(2).index()].contains(&VcpuId(0)));
        assert!(s.check_all().is_ok());
    }

    #[test]
    fn completed_migration_is_consistent() {
        let mut s = credit_sched(4, 4);
        s.migrate_enqueue(VcpuId(0), CpuId(2));
        s.migrate_dequeue(VcpuId(0), CpuId(1));
        s.set_assigned(VcpuId(0), CpuId(2));
        assert_eq!(s.queue_occurrences(VcpuId(0)), 1);
        assert_eq!(s.vcpu(VcpuId(0)).pinned_to, CpuId(2));
        // Repair finds nothing extra to do beyond dropping the (none)
        // migration proposal.
        s.make_consistent_from_percpu();
        assert_eq!(s.requeue_runnable(), 0);
    }

    #[test]
    fn pending_wake_is_consumed_by_repair_never_for_offline() {
        let mut s = credit_sched(4, 4);
        s.dequeue(VcpuId(0));
        s.block(VcpuId(0));
        assert_eq!(
            s.vcpu(VcpuId(0)).block_reason,
            Some(BlockReason::WaitForEvent)
        );
        s.note_pending_wake(VcpuId(0));
        assert!(s.vcpu(VcpuId(0)).pending_wake);
        s.requeue_runnable();
        assert_eq!(s.vcpu(VcpuId(0)).state, RunState::Runnable);
        assert!(!s.vcpu(VcpuId(0)).pending_wake);
        assert_eq!(s.queue_occurrences(VcpuId(0)), 1);

        // Offline vCPUs never accumulate or honour pending wakes.
        s.offline_vcpus(&[VcpuId(1)]);
        s.note_pending_wake(VcpuId(1));
        assert!(!s.vcpu(VcpuId(1)).pending_wake);
        s.requeue_runnable();
        assert_eq!(s.vcpu(VcpuId(1)).state, RunState::Offline);
        assert_eq!(s.queue_occurrences(VcpuId(1)), 0);
    }

    #[test]
    fn stale_migration_proposal_is_dropped_by_repair() {
        let mut s = Scheduler::new(4);
        s.enable_credit(&[CpuId(1), CpuId(2)]);
        for i in 0..3 {
            s.register_vcpu(VcpuId(i), CpuId(1));
        }
        s.credit_tick(CpuId(1));
        // The proposed victim blocks before the migration runs.
        s.dequeue(VcpuId(2));
        s.block(VcpuId(2));
        s.requeue_runnable();
        assert!(
            s.take_pending_migration(CpuId(1)).is_none(),
            "repair drops proposals whose victim is no longer runnable"
        );
    }

    #[test]
    fn cached_pick_always_equals_fresh_scan() {
        let mut s = credit_sched(4, 6);
        for step in 0..200u32 {
            // A deterministic little driver: mutate, then compare on all
            // CPUs. (The proptest suite covers random interleavings; this
            // pins the invalidation wiring at the unit level.)
            match step % 6 {
                0 => s.credit_tick(CpuId(1 + step % 2)),
                1 => {
                    let v = VcpuId(step % 6);
                    if s.vcpu(v).state == RunState::Runnable {
                        s.dequeue(v);
                        s.block(v);
                    }
                }
                2 => s.enqueue(VcpuId((step + 3) % 6)),
                3 => s.migrate_enqueue(VcpuId(step % 6), CpuId(2)),
                4 => {
                    s.migrate_dequeue(VcpuId(step % 6), CpuId(1));
                    s.set_assigned(VcpuId(step % 6), CpuId(2));
                }
                _ => {
                    s.make_consistent_from_percpu();
                    s.requeue_runnable();
                }
            }
            for c in 0..4 {
                let cpu = CpuId(c);
                assert_eq!(s.cached_pick(cpu), s.peek_next(cpu), "step {step} cpu {c}");
                // Serve it twice: the cached value must stay equal.
                assert_eq!(s.cached_pick(cpu), s.peek_next(cpu));
            }
        }
    }

    #[test]
    fn legacy_mode_is_unaffected_by_credit_fields() {
        // The pinned model must behave exactly as before: first-runnable
        // pick, no resched flags, no migrations.
        let mut s = sched_with(2, 2);
        s.vcpu_mut(VcpuId(1)).credits = 9999;
        assert_eq!(s.peek_next(CpuId(0)), Some(VcpuId(0)));
        s.credit_tick(CpuId(0));
        assert!(!s.take_resched(CpuId(0)));
        assert!(s.take_pending_migration(CpuId(0)).is_none());
        assert_eq!(s.vcpu(VcpuId(0)).credits, CREDIT_INIT, "tick is a no-op");
    }
}
