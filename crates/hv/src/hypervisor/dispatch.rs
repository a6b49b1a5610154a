//! The stepping loop: how simulated time advances.
//!
//! There is one batched loop, [`Hypervisor::run_batched`], and one
//! reference oracle, [`Hypervisor::run_until_unbatched`] (one fully
//! checked [`Hypervisor::step_any`] per iteration). Each iteration of the
//! batched loop picks one of its dispatch tiers, every one of which is
//! provably equivalent to the checked single steps it replaces:
//!
//! 1. **Horizons.** The per-step entry checks (the watchdog NMI, external
//!    net traffic) are hoisted out of the loop, per CPU: a CPU's check
//!    horizon is the earliest instant one of *its own* checks could have
//!    an effect (its watchdog deadline, plus `net.next` on the CPU the net
//!    vector is routed to; `cpu_horizon`). A checked step moves only its
//!    own CPU's horizon; a route rewrite moves them all.
//! 2. **Pick.** The CPU with the earliest clock steps next (first index
//!    on ties); reaching the deadline ends the run.
//! 3. **Fused hypervisor span.** Below its horizon, a CPU mid-program runs
//!    a stretch of micro-ops in one dispatch (`fused_hv_run`): `Compute`
//!    runs and contended-lock spins in bulk, everything else op by op
//!    after one fetch each. At the pick bound the span rescans and *hands
//!    off*: if the next pick is also mid-program below its horizon, the
//!    span carries on there, so CPUs stepping their programs in lockstep
//!    cost no loop iteration per op. Under a stop rule with no marker and
//!    no budget, a `Compute` run may *jump* past the pick bound, clipped
//!    only by its own CPU's horizon: it touches nothing but that CPU's
//!    clock, pc and cycles, the micro-op count and the step counter.
//! 4. **Idle window.** Provably idle CPUs fast-forward whole quanta at
//!    once (`fused_idle_window`). Most are capped at the earliest instant
//!    anything could disturb them; a CPU with no current vCPU and no
//!    vCPU to switch in (or a parked or wedged one) instead *jumps* to
//!    its own next event — its APIC one-shot, its horizon or the stop
//!    rule's marker — ahead of the other CPUs.
//! 5. **Single step.** Otherwise one step runs: unchecked below the
//!    CPU's horizon, fully checked at it ([`Hypervisor::step`]).
//! 6. **Stop rule.** The caller's [`StopRule`] sees every single step and
//!    may end the run right after it. It also bounds what tiers 3 and 4
//!    may fuse, so no step it must see is buried inside a span.
//! 7. **Rewind.** A jumped CPU's idle quanta touch only its clock and the
//!    step counter, so they commute with everything that does not touch
//!    its wake inputs: its runqueue, current pointer and credit flags,
//!    which mark it in the scheduler's wake mask, and interrupt raises
//!    and route writes, which mark it in the interrupt controller's
//!    (`Hypervisor::woken`).
//!    When a step does, or when a detection or the stop rule ends the run,
//!    the CPU is rewound to the first of its quanta the reference would
//!    not yet have run at that step (`rewind_jumped`). A compute-jumped
//!    CPU's ops commute with every other CPU's steps, wakes included, so
//!    only a detection, a stop, or a route write that lowers its horizon
//!    to or below the start of its last jumped op rewinds it, by the same
//!    first-index tie rule (`rewind_hv_jumped`). A CPU the pick reaches has all its quanta
//!    or ops behind every other CPU and stops being jumped (`settle`).
//!
//! The differential tests pin the whole loop against the reference: the
//! same step sequence, step count, final state digest and trial result.
//! [`TierCounters`] count each tier's work exactly.
//!
//! The loop is generic over its stop rule, so the fault injector's
//! instance is compiled in the injector's crate. The functions the loop
//! calls per step are therefore `#[inline]`: otherwise that instance
//! reaches them only as out-of-line calls across the crate boundary, and
//! steered campaign trials measured about 10% slower than through the
//! in-crate instance.

use nlh_sim::{CpuId, Cycles, IrqVector, SimDuration, SimTime, VcpuId};

use super::{CpuMode, Hypervisor, StepOutcome, LOG_OP_BASE_CYCLES};
use crate::domain::{GuestNotice, GuestOp};
use crate::hypercalls::{HcRequest, MicroOp, PendingKind};
use crate::interrupts::{VEC_BLK, VEC_NET};
use crate::sched::cpu_bit;

/// What ends a batched run ([`Hypervisor::run_batched`]) early, and how
/// far the run may fuse on the way.
///
/// The loop calls [`StopRule::after_step`] after every step it dispatches
/// singly, and bounds its fused tiers so the rule misses nothing:
///
/// * a fused hypervisor span executes at most [`StopRule::span_budget`]
///   micro-ops, all with post-step clocks below [`StopRule::marker`], and
///   is reported through [`StopRule::after_span`] (a span may hand off
///   between CPUs, so its ops can belong to several of them);
/// * a fused idle window takes only `Idle` steps, again with post-step
///   clocks below the marker.
///
/// A rule with neither a marker nor a budget lets a span run a `Compute`
/// run ahead of the other CPUs; a stop or a detection may then take some
/// of those ops back, and they are executed and reported again later, so
/// only a rule that bounds spans gets an exact op count from
/// `after_span`.
///
/// The unit rule `()` never stops early: a plain run to the deadline. The
/// fault injector's trigger chain (`nlh_inject::Injector`) is the other
/// rule: it waits for its clock marker, counts hypervisor micro-ops, and
/// stops on the step it fires on.
pub trait StopRule {
    /// An instant no fused span may carry a clock to, so the step that
    /// reaches it is always dispatched singly.
    fn marker(&self) -> Option<SimTime> {
        None
    }

    /// How many hypervisor micro-ops one fused span may execute; `0`
    /// sends every micro-op through [`StopRule::after_step`].
    fn span_budget(&self) -> u64 {
        u64::MAX
    }

    /// A fused span executed `ops` micro-ops, each of which a single step
    /// would have reported as [`StepOutcome::HvOp`]. (A span that raised a
    /// detection ended on a `Frozen` step, which is not counted.)
    fn after_span(&mut self, _ops: u64) {}

    /// Sees one singly dispatched step of `cpu` and its outcome; `true`
    /// ends the run right after it.
    ///
    /// The rule may read `cpu`'s own state only: CPUs the loop has jumped
    /// ahead may show later clocks (and the step counter their quanta or
    /// ops; a compute-jumped CPU also its pc, cycles and micro-op count)
    /// until the run ends, when a stop rewinds them exactly.
    fn after_step(&mut self, hv: &Hypervisor, cpu: CpuId, out: StepOutcome) -> bool;
}

/// The plain run: nothing but the deadline or a detection stops it.
impl StopRule for () {
    fn after_step(&mut self, _: &Hypervisor, _: CpuId, _: StepOutcome) -> bool {
        false
    }
}

/// Exact work counters of [`Hypervisor::run_batched`]'s tiers (host
/// bookkeeping, outside the state digest). Every field only grows;
/// subtract two snapshots ([`TierCounters::since`]) to count a window.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TierCounters {
    /// Loop iterations: one next-CPU pick each.
    pub iterations: u64,
    /// Per-CPU check horizons computed.
    pub horizon_recomputes: u64,
    /// Fused hypervisor spans that executed at least one step.
    pub fused_spans: u64,
    /// Steps executed inside fused spans (spins and compute jumps
    /// included).
    pub fused_ops: u64,
    /// Fused spans carried on to the next-picked CPU at the pick bound.
    pub handoffs: u64,
    /// Bulk contended-lock spins inside fused spans.
    pub spin_spans: u64,
    /// Spin steps taken in bulk.
    pub spin_ops: u64,
    /// `Compute` runs that carried their CPU past the pick bound.
    pub compute_jumps: u64,
    /// Ops of those runs.
    pub compute_jump_ops: u64,
    /// Compute-jumped CPUs moved back to the reference's position.
    pub compute_rewinds: u64,
    /// Idle windows that advanced at least one quantum.
    pub idle_windows: u64,
    /// Quanta those windows advanced (jumped quanta included).
    pub idle_quanta: u64,
    /// Idle-window advances of an idle CPU to its own next event.
    pub jumps: u64,
    /// Quanta of those advances.
    pub jump_quanta: u64,
    /// Idle-jumped CPUs moved back to the reference's position.
    pub rewinds: u64,
    /// Quanta those rewinds took back.
    pub rewound_quanta: u64,
    /// Single steps below the stepped CPU's horizon.
    pub unchecked_steps: u64,
    /// Single steps at or past it, entry checks included.
    pub checked_steps: u64,
    /// Full next-CPU scans (pick cache misses its third smallest could
    /// not serve).
    pub rescans: u64,
}

impl TierCounters {
    /// The work counted since `earlier`, a snapshot of the same machine's
    /// counters.
    pub fn since(&self, earlier: &TierCounters) -> TierCounters {
        TierCounters {
            iterations: self.iterations - earlier.iterations,
            horizon_recomputes: self.horizon_recomputes - earlier.horizon_recomputes,
            fused_spans: self.fused_spans - earlier.fused_spans,
            fused_ops: self.fused_ops - earlier.fused_ops,
            handoffs: self.handoffs - earlier.handoffs,
            spin_spans: self.spin_spans - earlier.spin_spans,
            spin_ops: self.spin_ops - earlier.spin_ops,
            compute_jumps: self.compute_jumps - earlier.compute_jumps,
            compute_jump_ops: self.compute_jump_ops - earlier.compute_jump_ops,
            compute_rewinds: self.compute_rewinds - earlier.compute_rewinds,
            idle_windows: self.idle_windows - earlier.idle_windows,
            idle_quanta: self.idle_quanta - earlier.idle_quanta,
            jumps: self.jumps - earlier.jumps,
            jump_quanta: self.jump_quanta - earlier.jump_quanta,
            rewinds: self.rewinds - earlier.rewinds,
            rewound_quanta: self.rewound_quanta - earlier.rewound_quanta,
            unchecked_steps: self.unchecked_steps - earlier.unchecked_steps,
            checked_steps: self.checked_steps - earlier.checked_steps,
            rescans: self.rescans - earlier.rescans,
        }
    }

    /// `(name, value)` for every counter, in declaration order.
    pub fn fields(&self) -> [(&'static str, u64); 19] {
        [
            ("iterations", self.iterations),
            ("horizon_recomputes", self.horizon_recomputes),
            ("fused_spans", self.fused_spans),
            ("fused_ops", self.fused_ops),
            ("handoffs", self.handoffs),
            ("spin_spans", self.spin_spans),
            ("spin_ops", self.spin_ops),
            ("compute_jumps", self.compute_jumps),
            ("compute_jump_ops", self.compute_jump_ops),
            ("compute_rewinds", self.compute_rewinds),
            ("idle_windows", self.idle_windows),
            ("idle_quanta", self.idle_quanta),
            ("jumps", self.jumps),
            ("jump_quanta", self.jump_quanta),
            ("rewinds", self.rewinds),
            ("rewound_quanta", self.rewound_quanta),
            ("unchecked_steps", self.unchecked_steps),
            ("checked_steps", self.checked_steps),
            ("rescans", self.rescans),
        ]
    }
}

/// One CPU's state in the batched loop.
#[derive(Debug, Clone, Copy, Default)]
pub(super) struct TierCpu {
    /// The earliest clock at which this CPU's own entry checks could act.
    horizon: SimTime,
    /// The clock this CPU's current jump started from (meaningful while
    /// its bit in `Hypervisor::jumped` or `Hypervisor::hv_jumped` is set).
    jump_from: SimTime,
}

/// How a provably idle CPU's next steps look to the idle window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum IdleKind {
    /// A current vCPU that cannot run (inactive domain, stuck request,
    /// finished workload): whole quanta, capped by every other CPU.
    Held,
    /// No current vCPU and nothing to switch in: whole quanta toward its
    /// own one-shot, jumped ahead of the other CPUs.
    Sleeping,
    /// No current vCPU and only an inactive domain's vCPU to switch in:
    /// whole quanta toward its own one-shot, capped by every other CPU
    /// (the domain's activation, which no wake mask records, would wake
    /// it).
    Queued,
    /// Parked or wedged: whole quanta whatever the one-shot, jumped ahead.
    Halted,
}

impl Hypervisor {
    /// Steps the CPU with the earliest local clock.
    pub fn step_any(&mut self) -> (CpuId, StepOutcome) {
        let cpu = self.pick_next_cpu();
        let out = self.step(cpu);
        (cpu, out)
    }

    /// The CPU `step_any` would step next (the argmin of the per-CPU
    /// clocks, first index winning ties), served from the cache when the
    /// cached CPU provably still holds the minimum.
    #[inline]
    fn pick_next_cpu(&mut self) -> CpuId {
        if self.next_valid {
            let c = self.next_cpu as usize;
            let t = self.cpu_now[c];
            if t < self.next_bound || (t == self.next_bound && self.next_cpu < self.next_bound_cpu)
            {
                return CpuId::from_index(c);
            }
        }
        self.repick_next_cpu()
    }

    /// The pick once the cached CPU has passed the bound. Only that CPU's
    /// clock moved since the cache was filled, so the bound's CPU holds
    /// the minimum now, and the second smallest is the third or the
    /// passed CPU, whichever is smaller (first index on ties). When it is
    /// the third, the new third is unknown and the next miss scans.
    #[inline]
    fn repick_next_cpu(&mut self) -> CpuId {
        if !(self.next_valid && self.third_valid) || self.next_bound_cpu == u32::MAX {
            return self.rescan_next_cpu();
        }
        let (c, tc) = (self.next_cpu, self.cpu_now[self.next_cpu as usize]);
        let next = self.next_bound_cpu;
        if tc < self.next_third || (tc == self.next_third && c < self.next_third_cpu) {
            self.next_bound = tc;
            self.next_bound_cpu = c;
        } else {
            self.next_bound = self.next_third;
            self.next_bound_cpu = self.next_third_cpu;
            self.third_valid = false;
        }
        self.next_cpu = next;
        debug_assert_eq!(
            self.three_smallest()[..2],
            [
                (self.cpu_now[next as usize], next),
                (self.next_bound, self.next_bound_cpu)
            ],
            "the repick is the scan's"
        );
        CpuId::from_index(next as usize)
    }

    /// Full O(#CPUs) scan: fills the cache with the argmin clock, the
    /// second smallest as its bound, and the third smallest.
    fn rescan_next_cpu(&mut self) -> CpuId {
        self.tier.rescans += 1;
        let [(_, best), (bound, bound_cpu), (third, third_cpu)] = self.three_smallest();
        self.next_cpu = best;
        self.next_bound = bound;
        self.next_bound_cpu = bound_cpu;
        self.next_third = third;
        self.next_third_cpu = third_cpu;
        self.next_valid = true;
        self.third_valid = true;
        CpuId::from_index(best as usize)
    }

    /// The three smallest `(clock, cpu)` pairs, first index on ties
    /// (`(FAR_FUTURE, u32::MAX)` past the number of CPUs).
    #[inline]
    fn three_smallest(&self) -> [(SimTime, u32); 3] {
        let mut best = (self.cpu_now[0], 0);
        let mut bound = (SimTime::FAR_FUTURE, u32::MAX);
        let mut third = bound;
        for (i, &t) in self.cpu_now.iter().enumerate().skip(1) {
            if t < best.0 {
                (third, bound, best) = (bound, best, (t, i as u32));
            } else if t < bound.0 {
                (third, bound) = (bound, (t, i as u32));
            } else if t < third.0 {
                third = (t, i as u32);
            }
        }
        [best, bound, third]
    }

    /// Runs until `deadline` or until an error is detected: the batched
    /// loop under the plain stop rule.
    pub fn run_until(&mut self, deadline: SimTime) {
        self.run_batched(deadline, &mut ());
    }

    /// Runs for `dur` of simulated time or until an error is detected.
    pub fn run_for(&mut self, dur: SimDuration) {
        let deadline = self.now() + dur;
        self.run_until(deadline);
    }

    /// The reference oracle: one fully checked [`Hypervisor::step_any`]
    /// per iteration. [`Hypervisor::run_batched`] must execute exactly
    /// this step sequence (differential-tested).
    pub fn run_until_unbatched(&mut self, deadline: SimTime) {
        while self.detection.is_none() && self.now() < deadline {
            self.step_any();
        }
    }

    /// The batched stepping loop (the numbered steps are those of the
    /// module docs). Runs until `deadline`, until a detection, or until
    /// `stop` ends the run after a step, returning that step's CPU.
    ///
    /// The horizons are hoisted out of the loop: a CPU's horizon only
    /// moves *down* when a micro-op rewrites an I/O APIC route
    /// (`horizon_dirty`), which recomputes them all; a checked step
    /// recomputes its own CPU's. Below its horizon a CPU's steps skip the
    /// entry-check comparisons the reference loop would evaluate to
    /// no-ops.
    ///
    /// Every exit leaves the machine exactly where the reference would
    /// be: a detection or a stop rewinds the jumped CPUs, and at the
    /// deadline every CPU is past all its jumped quanta.
    pub fn run_batched<S: StopRule>(&mut self, deadline: SimTime, stop: &mut S) -> Option<CpuId> {
        if self.detection.is_some() {
            return None;
        }
        // 1. Horizons.
        self.recompute_horizons(deadline);
        let costs = self.fused_costs();
        loop {
            self.tier.iterations += 1;
            // 2. Pick. The picked CPU holds the minimum clock, so any
            // quanta it jumped precede every step still to come.
            let cpu = self.pick_next_cpu();
            let i = cpu.index();
            let t = self.cpu_now[i];
            if t >= deadline {
                self.jumped = 0;
                self.hv_jumped = 0;
                return None;
            }
            self.settle(cpu);
            let checked = t >= self.tier_cpu[i].horizon;
            if !checked {
                // 3. Fused hypervisor span. It stops on a detection, on a
                // dirtied horizon and on a touched jumped CPU, each handled
                // exactly as after a single unchecked step of its last op
                // (on whichever CPU the span had handed off to).
                let budget = stop.span_budget();
                if budget > 0 {
                    let (span, last, last_cpu) =
                        self.fused_hv_run(cpu, costs, stop.marker(), budget);
                    if span > 0 {
                        let frozen = self.detection.is_some();
                        stop.after_span(span - frozen as u64);
                        if frozen {
                            self.rewind_all(last, last_cpu);
                            return None;
                        }
                        self.after_dispatch(last, last_cpu, deadline);
                        continue;
                    }
                }
                // 4. Idle window.
                if self.fused_idle_window(cpu, stop.marker()) > 0 {
                    continue;
                }
            }
            // 5. Single step.
            let out = if checked {
                self.tier.checked_steps += 1;
                self.step(cpu)
            } else {
                self.tier.unchecked_steps += 1;
                self.step_unchecked(cpu)
            };
            // 6. Stop rule.
            if stop.after_step(self, cpu, out) {
                self.rewind_all(t, cpu);
                return Some(cpu);
            }
            if self.detection.is_some() {
                self.rewind_all(t, cpu);
                return None;
            }
            // A checked step fired its due checks and moved their
            // deadlines, all of them its own CPU's.
            if checked {
                self.tier_cpu[i].horizon = self.cpu_horizon(i, deadline);
            }
            self.after_dispatch(t, cpu, deadline);
        }
    }

    /// Step 7 after a dispatch whose last step started at `at` on `cpu`:
    /// rewinds every idle-jumped CPU whose wake inputs that step touched,
    /// recomputes the horizons a route rewrite may have lowered, and
    /// rewinds every compute-jumped CPU the lowered horizon now cuts.
    #[inline]
    fn after_dispatch(&mut self, at: SimTime, cpu: CpuId, deadline: SimTime) {
        let woken = self.woken();
        if woken != 0 {
            self.rewind_jumped(woken, at, cpu);
        }
        if self.horizon_dirty {
            self.horizon_dirty = false;
            self.recompute_horizons(deadline);
            if self.hv_jumped != 0 {
                let cut = self.cut_hv_jumps();
                self.rewind_hv_jumped(cut, at, cpu);
            }
        }
    }

    /// The picked CPU holds the minimum clock, so every quantum or op it
    /// jumped precedes each step still to come: it stops being jumped.
    #[inline]
    fn settle(&mut self, cpu: CpuId) {
        let bit = !cpu_bit(cpu);
        self.jumped &= bit;
        self.hv_jumped &= bit;
    }

    /// Rewinds every jumped CPU, idle or compute, to where the reference
    /// would have it right after the step of `w` that started at `tw`: a
    /// detection or a stop ends the run there.
    fn rewind_all(&mut self, tw: SimTime, w: CpuId) {
        self.rewind_jumped(self.jumped, tw, w);
        self.rewind_hv_jumped(self.hv_jumped, tw, w);
    }

    /// The jumped CPUs whose wake inputs changed since their jump: the
    /// scheduler's and the interrupt controller's wake masks, the only
    /// two places those inputs live.
    #[inline]
    fn woken(&self) -> u64 {
        (self.sched.touched() | self.irqs.touched()) & self.jumped
    }

    /// Every CPU's check horizon, from scratch.
    fn recompute_horizons(&mut self, deadline: SimTime) {
        for i in 0..self.tier_cpu.len() {
            self.tier_cpu[i].horizon = self.cpu_horizon(i, deadline);
        }
    }

    /// The earliest clock at which CPU `i`'s own per-step entry checks
    /// could matter: its watchdog deadline (parked CPUs are exempt,
    /// exactly the check's own mode test) and, on the CPU the net vector
    /// is routed to, the next packet time; never past `deadline`.
    #[inline]
    fn cpu_horizon(&mut self, i: usize, deadline: SimTime) -> SimTime {
        self.tier.horizon_recomputes += 1;
        let mut horizon = deadline;
        if self.cpu_mode[i] != CpuMode::Parked {
            horizon = horizon.min(self.percpu[i].watchdog.next_check);
        }
        if let Some(net) = &self.net {
            if self.irqs.ioapic_route(VEC_NET) == Some(CpuId::from_index(i)) {
                horizon = horizon.min(net.next);
            }
        }
        horizon
    }

    /// Moves each jumped CPU in `cpus` back to where the reference would
    /// have it right after the step of `w` that started at `tw`, and
    /// clears their jumped bits.
    ///
    /// A CPU that jumped `n` quanta of `q` from `b` took steps starting at
    /// `b + k·q` for `k < n`. The reference runs the one at `s` before
    /// `w`'s step exactly when `s < tw`, or `s == tw` and the CPU's index
    /// is below `w`'s (the pick's first-index tie). Those quanta stand;
    /// the rest are taken back, clock and step count alike.
    fn rewind_jumped(&mut self, cpus: u64, tw: SimTime, w: CpuId) {
        let q = self.tuning.idle_quantum.as_nanos();
        let mut left = cpus & self.jumped;
        self.jumped &= !cpus;
        while left != 0 {
            let j = left.trailing_zeros() as usize;
            left &= left - 1;
            let b = self.tier_cpu[j].jump_from.as_nanos();
            let n = (self.cpu_now[j].as_nanos() - b) / q;
            let k = steps_before(b, n, q, j, tw, w);
            if k < n {
                self.cpu_now[j] = SimTime::ZERO + SimDuration::from_nanos(b + k * q);
                self.steps -= n - k;
                self.tier.rewinds += 1;
                self.tier.rewound_quanta += n - k;
                // The clock moved backwards: the cached pick is stale.
                self.next_valid = false;
            }
        }
    }

    /// [`Self::rewind_jumped`] for compute-jumped CPUs: a CPU whose
    /// `Compute` run took `n` ops of `d` from `b` keeps the ones the
    /// reference runs before `w`'s step at `tw`, by the same first-index
    /// tie rule. The rest are taken back: clock, step count, pc, cycles
    /// and the micro-op count alike (the run never retired its frame, so
    /// the pc still indexes into it).
    fn rewind_hv_jumped(&mut self, cpus: u64, tw: SimTime, w: CpuId) {
        let mut left = cpus & self.hv_jumped;
        self.hv_jumped &= !cpus;
        if left == 0 {
            return;
        }
        let (d, _) = self.fused_costs();
        while left != 0 {
            let j = left.trailing_zeros() as usize;
            left &= left - 1;
            let b = self.tier_cpu[j].jump_from.as_nanos();
            let n = (self.cpu_now[j].as_nanos() - b) / d;
            let k = steps_before(b, n, d, j, tw, w);
            if k < n {
                let back = n - k;
                self.cpu_now[j] = SimTime::ZERO + SimDuration::from_nanos(b + k * d);
                let f = self.stacks[j].last_mut().expect("a jump keeps its frame");
                f.pc -= back as usize;
                self.steps -= back;
                self.accounting.uncharge_hv_span(
                    CpuId::from_index(j),
                    Cycles(self.tuning.cycles_per_micro_op) * back,
                    back,
                );
                self.tier.compute_rewinds += 1;
                self.next_valid = false;
            }
        }
    }

    /// The compute-jumped CPUs whose last jumped op starts at or past
    /// their (just recomputed) horizon: a route rewrite moved the net
    /// vector's packet time onto them, so the reference runs that op
    /// checked.
    fn cut_hv_jumps(&mut self) -> u64 {
        let (d, _) = self.fused_costs();
        let mut cut = 0;
        let mut left = self.hv_jumped;
        while left != 0 {
            let j = left.trailing_zeros() as usize;
            left &= left - 1;
            if self.cpu_now[j].as_nanos() - d >= self.tier_cpu[j].horizon.as_nanos() {
                cut |= 1 << j;
            }
        }
        cut
    }

    /// The superop dispatcher's per-op clock costs, memoized on the
    /// tuning knobs and CPU frequency they were computed from: the plain
    /// micro-op advance and the worst-case single-op advance (the larger
    /// of a full micro-op and a pure-log base, plus the larger logging
    /// share), used for the conservative marker clip. Cycle-to-time
    /// conversion divides, and the operands only change when the caller
    /// retunes the machine between runs, so the batched loop reads them
    /// once per run.
    #[inline]
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
    #[inline]
    pub(super) fn op_ns(&mut self, base: Cycles, slot: usize) -> u64 {
        let f = self.config.cpu_freq_mhz;
        let c = &mut self.op_ns_cache[slot];
        if c[0] == base.count() && c[1] == f {
            return c[2];
        }
        let ns = base.to_duration(f).as_nanos();
        *c = [base.count(), f, ns];
        ns
    }

    /// Executes up to `cap` micro-ops of the current handler programs as
    /// one fused superop dispatch, starting on `cpu`, returning how many
    /// steps were taken (0 means the caller must take a normal single
    /// step) and the start time and CPU of the last op executed singly
    /// (the one a detection, a dirtied horizon or a touched jumped CPU
    /// broke the span on).
    ///
    /// Fusion rules (see ARCHITECTURE.md §9): a *run* is a maximal stretch
    /// of micro-ops that cannot suspend the program counter — everything
    /// except a contended `Acquire`, which spins in place and is the
    /// program’s abandonment boundary structure made visible to the
    /// dispatcher. Each fused op executes through [`Self::exec_op`], the
    /// body of [`Self::step_hv`], after the span's own fetch, so its side
    /// effects, charging, and program-counter motion are the reference’s
    /// own code; what the fused run elides is the outer loop’s per-step
    /// machinery (next-CPU pick, horizon compare, fusion attempts, outcome
    /// plumbing), which is provably no-op under the clip rules below. Two
    /// shapes take a faster bulk branch that charges many steps in one
    /// call: runs of [`MicroOp::Compute`] — precompiled per program at
    /// build time ([`Program::runs`]) — and spins on a held lock, whose
    /// steps each charge one plain micro-op and move nothing but the
    /// clock (no other CPU steps before the next pick bound, so nothing
    /// can release the lock inside one spin).
    ///
    /// The loop is clipped so that fusing is *provably* invisible next to
    /// the reference one-op-at-a-time execution:
    ///
    /// * every fused step's *start* time stays below its CPU's own
    ///   horizon, where its per-step entry checks are no-ops (Hv-mode
    ///   dispatches never poll the local APIC, so the one-shot needs no
    ///   bound here);
    /// * every fused step's start stays within the cached next-CPU pick's
    ///   validity bound (including `min_by_key`'s first-index tie rule),
    ///   so cross-CPU interleaving — and the cache fields themselves —
    ///   match the reference exactly. At the bound the span makes the
    ///   rescan the outer loop would make next, and *hands off*: when the
    ///   new pick is also mid-program below its horizon (and so below the
    ///   deadline), the span carries on there with the same clips;
    /// * with a `marker`, every fused step's *post*-step time stays below
    ///   it (conservatively, using the largest charge any op can incur),
    ///   so the marker-crossing step itself runs through the normal path;
    /// * the run breaks on anything the outer loop would react to — a
    ///   raised detection (the detecting step returns `Frozen` exactly as
    ///   in the reference, and is excluded from the caller's micro-op
    ///   budget), a mode change (frame retirement dropping to `Run`), a
    ///   dirtied horizon (`IoapicWrite`), or a touched wake input of a
    ///   jumped CPU — leaving the next step to the caller;
    /// * the run is capped at the stop rule's span budget and its step
    ///   count reported to the rule in bulk, so no step the rule must see
    ///   (an injector fire attempt) is ever buried inside a fused run.
    ///
    /// With no marker and no budget, nothing reads the global op order
    /// but the pick, so a `Compute` run may *jump* past the pick bound,
    /// clipped only by its CPU's horizon: its ops touch nothing but that
    /// CPU's clock, pc, cycles and the micro-op count, so they commute
    /// with every other CPU's steps. A jump keeps its program's last op
    /// (it never retires a frame), and its CPU is settled when the pick
    /// next reaches it, or rewound when a detection, a stop or a lowered
    /// horizon ends the run before that (`rewind_hv_jumped`).
    #[inline]
    fn fused_hv_run(
        &mut self,
        cpu: CpuId,
        (d, dmax): (u64, u64),
        marker: Option<SimTime>,
        cap: u64,
    ) -> (u64, SimTime, CpuId) {
        let (mut cpu, mut i) = (cpu, cpu.index());
        let mut last = (self.cpu_now[i], cpu);
        if self.cpu_mode[i] != CpuMode::Hv || d == 0 {
            return (0, last.0, last.1);
        }
        let mut h = self.tier_cpu[i].horizon.as_nanos();
        // Pick-cache validity: starts may sit *at* `next_bound` only while
        // this CPU wins the `min_by_key` first-index tie.
        let mut nb = self.next_bound.as_nanos();
        let mut tie_win = self.next_cpu < self.next_bound_cpu;
        let mk = marker.map(|m| m.as_nanos());
        let may_jump = mk.is_none() && cap == u64::MAX;
        let mut executed: u64 = 0;
        while executed < cap {
            let mut t = self.cpu_now[i].as_nanos();
            if t > nb || (t == nb && !tie_win) {
                // Handoff: the outer loop's next pick, made here.
                let next = self.repick_next_cpu();
                let j = next.index();
                if self.cpu_mode[j] != CpuMode::Hv || self.cpu_now[j] >= self.tier_cpu[j].horizon {
                    break;
                }
                self.settle(next);
                self.tier.handoffs += 1;
                (cpu, i) = (next, j);
                t = self.cpu_now[i].as_nanos();
                h = self.tier_cpu[i].horizon.as_nanos();
                nb = self.next_bound.as_nanos();
                tie_win = self.next_cpu < self.next_bound_cpu;
            }
            if t >= h {
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
            // How many plain micro-op steps of `d` the CPU's own clips
            // (budget, horizon, marker) and the pick bound leave room for,
            // starting at `t` (at least one each: the checks above).
            let own = || {
                let mut m = (cap - executed).min((h - t - 1) / d + 1);
                if let Some(mk) = mk {
                    m = m.min((mk - t - 1) / d);
                }
                m
            };
            let pick = || {
                if tie_win {
                    (nb - t) / d + 1
                } else {
                    (nb - t - 1) / d + 1
                }
            };
            let op = f.program.ops()[f.pc];
            let crun = if matches!(op, MicroOp::Compute) {
                f.program.run_len_at(f.pc) as u64
            } else {
                0
            };
            if crun >= 2 {
                // Bulk branch: a precompiled `Compute` run charges and
                // advances in one call (uniform cost, no side effects).
                let (own, pick) = (own(), pick());
                let mut m = crun.min(own).min(pick);
                let mut jump = false;
                if may_jump {
                    // A jump stops short of the program's last op.
                    let at_end = f.pc + crun as usize == f.program.len();
                    let far = (crun - at_end as u64).min(own);
                    if far > pick {
                        (m, jump) = (far, true);
                    }
                }
                if m >= 2 {
                    self.bulk_hv_steps(cpu, t, d, m);
                    executed += m;
                    let f = self.stacks[i]
                        .last_mut()
                        .expect("span bounds checked above");
                    f.pc += m as usize;
                    if jump {
                        self.hv_jumped |= cpu_bit(cpu);
                        self.tier_cpu[i].jump_from = SimTime::ZERO + SimDuration::from_nanos(t);
                        self.tier.compute_jumps += 1;
                        self.tier.compute_jump_ops += m;
                    } else if f.pc >= f.program.len() {
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
            if let MicroOp::Acquire(l) = op {
                if self.locks.get(l).holder.is_some() {
                    // Spin branch: each contended attempt leaves the pc
                    // and the lock as they are, so the clips alone bound
                    // the spin. It ends at a clip.
                    let m = own().min(pick());
                    self.bulk_hv_steps(cpu, t, d, m);
                    executed += m;
                    self.tier.spin_spans += 1;
                    self.tier.spin_ops += m;
                    continue;
                }
                // A free lock is taken without suspending the pc, so the
                // run carries straight through the acquire.
            }
            // Single fused op: the reference dispatch itself, minus the
            // outer loop's bookkeeping.
            let (cause, logged) = (f.program.cause, f.program.logged);
            self.steps += 1;
            executed += 1;
            last = (self.cpu_now[i], cpu);
            let out = self.exec_op(cpu, op, cause, logged);
            if out == StepOutcome::Frozen
                || self.cpu_mode[i] != CpuMode::Hv
                || self.horizon_dirty
                || self.woken() != 0
            {
                break;
            }
        }
        if executed > 0 {
            self.tier.fused_spans += 1;
            self.tier.fused_ops += executed;
        }
        (executed, last.0, last.1)
    }

    /// `m` plain micro-op steps of `d` each on `cpu` from clock `t`, in
    /// one charge: exactly `m` [`Self::step_hv`] dispatches of an op with
    /// no side effect and no logging share.
    #[inline]
    fn bulk_hv_steps(&mut self, cpu: CpuId, t: u64, d: u64, m: u64) {
        self.steps += m;
        self.accounting
            .charge_hv_span(cpu, Cycles(self.tuning.cycles_per_micro_op) * m, m);
        self.cpu_now[cpu.index()] = SimTime::ZERO + SimDuration::from_nanos(t + m * d);
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
    /// below its horizon is classified as *stable* (its next steps are
    /// provably pure clock advances: Parked/Wedged; an idle CPU with no
    /// runnable pick into an active domain and no pending IRQ or
    /// scheduler work; a CPU whose current vCPU's domain is inactive,
    /// stuck on an uncommitted request, or finished with no queued
    /// events) or *unstable* (mid-program, deliverable device interrupt,
    /// pending credit work, live workload — anything that could build a
    /// program or touch cross-CPU state).
    ///
    /// A stable CPU with a current vCPU is *capped* at the earliest
    /// instant anything non-commuting could happen:
    ///
    /// * every unstable CPU's clock — fused starts stay strictly below
    ///   it, i.e. before the reference would run that CPU's next step;
    /// * every stable CPU's local APIC one-shot — a due one-shot builds a
    ///   timer program whose micro-ops can reach cross-CPU state, so no
    ///   fused step may start at or after *any* deadline in the window
    ///   (the firing step itself runs singly, and the skipped per-step
    ///   `take_fire` polls below the cap are provably false;
    ///   Parked/Wedged dispatches never poll);
    /// * every CPU's horizon (where its checked step could raise a hang
    ///   or a packet) and, with a `marker`, the marker (post-step times
    ///   stay below it, so the crossing step runs normally).
    ///
    /// A CPU with no current vCPU and no vCPU to switch in, and a parked
    /// or wedged one, is not capped by the other CPUs: it *jumps* to its
    /// own horizon (and the marker), since every input that could end its
    /// idling — its runqueue, current pointer and credit flags, an
    /// interrupt raised or routed to it — marks it in the scheduler's or
    /// the interrupt controller's wake mask, and the loop rewinds it when
    /// another CPU's step does so (`rewind_jumped`). A CPU whose only
    /// queued vCPU belongs to an inactive domain stays capped: activation
    /// marks no mask. A CPU with no current vCPU additionally fuses full
    /// quanta only, leaving the step that would clip to its deadline
    /// (`advance_to`) for the reference path.
    ///
    /// The classify pass starts at `first` (the caller's picked CPU,
    /// which holds the window's minimum clock): if the picked CPU itself
    /// is unstable the cap collapses to that minimum and nothing can
    /// fuse — the common case in busy phases, exiting after one
    /// classification and no division work.
    #[inline]
    fn fused_idle_window(&mut self, first: CpuId, marker: Option<SimTime>) -> u64 {
        let q = self.tuning.idle_quantum.as_nanos();
        let n = self.cpu_now.len();
        if q == 0 || n > 64 {
            return 0;
        }
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
        let mut jumpers: u64 = 0;
        let mut dls = [u64::MAX; 64];
        let mut full_q: u64 = 0;
        let mut cap = u64::MAX;
        for i in (f..n).chain(0..f) {
            let t = self.cpu_now[i].as_nanos();
            let h = self.tier_cpu[i].horizon.as_nanos();
            cap = cap.min(h);
            if t >= h {
                continue;
            }
            match self.idle_stability(CpuId::from_index(i)) {
                Some((dl, kind)) => {
                    stable |= 1 << i;
                    dls[i] = dl;
                    if matches!(kind, IdleKind::Sleeping | IdleKind::Queued) {
                        full_q |= 1 << i;
                    }
                    if matches!(kind, IdleKind::Sleeping | IdleKind::Halted) {
                        jumpers |= 1 << i;
                    }
                    cap = cap.min(dl);
                }
                None => {
                    // A jumped CPU stays stable until a step touches its
                    // wake inputs, which rewinds it first.
                    debug_assert!(self.jumped & (1 << i) == 0, "jumped CPU {i} woke untouched");
                    if i == f {
                        return 0;
                    }
                    cap = cap.min(t);
                }
            }
        }

        // Pass 2: size the spans (division work only on live windows).
        let mkb = marker.map(|m| m.as_nanos());
        let mut total: u64 = 0;
        for (i, &dl) in dls.iter().enumerate().take(n) {
            let bit = 1u64 << i;
            if stable & bit == 0 {
                continue;
            }
            let t = self.cpu_now[i].as_nanos();
            // A jumper runs to its own horizon and one-shot, everyone else
            // to the cap; starts stay strictly below it...
            let limit = if jumpers & bit != 0 {
                self.tier_cpu[i].horizon.as_nanos().min(dl)
            } else {
                cap
            };
            if t >= limit {
                continue;
            }
            let mut m = if limit - t <= q {
                1
            } else {
                (limit - t - 1) / q + 1
            };
            // ...a sleeping idle CPU fuses full quanta toward its own
            // one-shot only...
            if full_q & bit != 0 && dl != u64::MAX {
                m = m.min((dl - t) / q);
            }
            // ...and, below a marker, post-step times stay below it.
            if let Some(mk) = mkb {
                m = m.min(if mk <= t { 0 } else { (mk - t - 1) / q });
            }
            if m == 0 {
                continue;
            }
            if jumpers & bit != 0 {
                if self.jumped & bit == 0 {
                    self.jumped |= bit;
                    self.tier_cpu[i].jump_from = self.cpu_now[i];
                    // Its wake inputs are as classified just now.
                    self.sched.clear_touched(bit);
                    self.irqs.clear_touched(bit);
                }
                self.tier.jumps += 1;
                self.tier.jump_quanta += m;
            }
            self.cpu_now[i] = SimTime::ZERO + SimDuration::from_nanos(t + m * q);
            total += m;
        }
        if total == 0 {
            return 0;
        }
        self.steps += total;
        self.tier.idle_windows += 1;
        self.tier.idle_quanta += total;
        // The bulk clock moves invalidate the cached next-CPU pick.
        self.next_valid = false;
        total
    }

    /// Classifies `cpu` for [`Self::fused_idle_window`]: `Some((deadline,
    /// kind))` when its next steps are provably stable idle (the deadline
    /// is its local APIC one-shot, `u64::MAX` when unarmed; see
    /// [`IdleKind`]), `None` when the CPU could do real work. The checks
    /// mirror the single-step dispatch's entry conditions exactly
    /// (including [`Scheduler::cached_pick`], the generation-validated
    /// pick `step_idle` itself serves), ordered so the common busy-phase
    /// classification exits cheaply.
    #[inline]
    fn idle_stability(&mut self, cpu: CpuId) -> Option<(u64, IdleKind)> {
        let i = cpu.index();
        match self.cpu_mode[i] {
            // Parked/Wedged: the dispatch advances one quantum
            // unconditionally (no APIC poll), and only another CPU's
            // action could change the mode.
            CpuMode::Parked | CpuMode::Wedged => Some((u64::MAX, IdleKind::Halted)),
            // A mid-program CPU executes micro-ops with side effects:
            // its steps cannot be reordered against anything.
            CpuMode::Hv => None,
            CpuMode::Run => {
                let kind = match self.sched.current(cpu) {
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
                        IdleKind::Held
                    }
                    None => {
                        // The idle loop panics in IRQ context and
                        // switches in any runnable vCPU of an active
                        // domain; otherwise it sleeps quantum-wise
                        // toward its own APIC deadline.
                        if self.percpu[i].local_irq_count != 0 {
                            return None;
                        }
                        match self.sched.cached_pick(cpu) {
                            Some(v) => {
                                let dom = self.domain_of(v);
                                if self.domains[dom.index()].is_active() {
                                    return None;
                                }
                                IdleKind::Queued
                            }
                            None => IdleKind::Sleeping,
                        }
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
                Some((dl, kind))
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
    /// and only when the stepped CPU's clock is below its own check
    /// horizon (`cpu_horizon`) — i.e. when its watchdog comparison and,
    /// on the net-routed CPU, the net-traffic generator are provably
    /// no-ops — and when no detection is pending.
    #[inline]
    fn step_unchecked(&mut self, cpu: CpuId) -> StepOutcome {
        self.steps += 1;
        self.dispatch_step(cpu)
    }

    /// Mode dispatch shared by the checked and unchecked step paths.
    #[inline]
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

    #[inline]
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

    #[inline]
    pub(super) fn advance(&mut self, cpu: CpuId, d: SimDuration) {
        self.cpu_now[cpu.index()] = self.cpu_now[cpu.index()] + d;
    }

    #[inline]
    fn advance_to(&mut self, cpu: CpuId, t: SimTime) {
        let i = cpu.index();
        if t > self.cpu_now[i] {
            self.cpu_now[i] = t;
        } else {
            self.advance(cpu, self.tuning.idle_quantum);
        }
    }

    /// Guest-or-idle step.
    #[inline]
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

    #[inline]
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

    #[inline]
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

    /// Whether any virtio device signals completions on `vec` (so a hybrid
    /// setup with a legacy NetBench sender keeps VEC_NET to itself).
    fn virtio_owns_vector(&self, vec: IrqVector) -> bool {
        self.virtio.devices.iter().any(|d| d.vector == vec)
    }
}

/// How many of a jumped CPU `j`'s `n` steps of `q` from `b` the reference
/// runs before the step of `w` that starts at `tw`: the steps that start
/// before `tw`, plus the one at `tw` when `j`'s index is below `w`'s (the
/// pick's first-index tie).
#[inline]
fn steps_before(b: u64, n: u64, q: u64, j: usize, tw: SimTime, w: CpuId) -> u64 {
    let tw = tw.as_nanos();
    let mut k = if tw > b {
        ((tw - b - 1) / q + 1).min(n)
    } else {
        0
    };
    if k < n && b + k * q == tw && j < w.index() {
        k += 1;
    }
    k
}
