//! The stepping loop: how simulated time advances.
//!
//! There is one batched loop, [`Hypervisor::run_batched`], and one
//! reference oracle, [`Hypervisor::run_until_unbatched`] (one fully
//! checked [`Hypervisor::step_any`] per iteration). Each iteration of the
//! batched loop picks one of its dispatch tiers, every one of which is
//! provably equivalent to the checked single steps it replaces:
//!
//! 1. **Horizon.** The per-step entry checks (the watchdog NMI, external
//!    net traffic) are hoisted out of the loop up to the earliest instant
//!    one of them could have an effect (`check_horizon`).
//! 2. **Pick.** The CPU with the earliest clock steps next (first index
//!    on ties); reaching the deadline ends the run.
//! 3. **Fused hypervisor span.** Below the horizon, a CPU mid-program runs
//!    a stretch of micro-ops in one dispatch (`fused_hv_run`).
//! 4. **Idle window.** Below the horizon, provably idle CPUs fast-forward
//!    whole quanta at once (`fused_idle_window`).
//! 5. **Single step.** Otherwise one step runs: unchecked below the
//!    horizon, fully checked at it ([`Hypervisor::step`]).
//! 6. **Stop rule.** The caller's [`StopRule`] sees every single step and
//!    may end the run right after it. It also bounds what tiers 3 and 4
//!    may fuse, so no step it must see is buried inside a span.
//! 7. After a checked step, or after a micro-op rewrote an I/O APIC route,
//!    the loop goes back to 1.
//!
//! The differential tests pin the whole loop against the reference: the
//! same step sequence, step count, trace ring and trial result.
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

/// What ends a batched run ([`Hypervisor::run_batched`]) early, and how
/// far the run may fuse on the way.
///
/// The loop calls [`StopRule::after_step`] after every step it dispatches
/// singly, and bounds its fused tiers so the rule misses nothing:
///
/// * a fused hypervisor span executes at most [`StopRule::span_budget`]
///   micro-ops, all with post-step clocks below [`StopRule::marker`], and
///   is reported through [`StopRule::after_span`];
/// * a fused idle window takes only `Idle` steps, again with post-step
///   clocks below the marker.
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
    fn after_step(&mut self, hv: &Hypervisor, cpu: CpuId, out: StepOutcome) -> bool;
}

/// The plain run: nothing but the deadline or a detection stops it.
impl StopRule for () {
    fn after_step(&mut self, _: &Hypervisor, _: CpuId, _: StepOutcome) -> bool {
        false
    }
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
    /// The horizon is hoisted out of the inner loop: it only moves *down*
    /// when a micro-op rewrites an I/O APIC route (`horizon_dirty`);
    /// everything else a dispatch does leaves it valid or raises it. A
    /// stale-low horizon merely costs a checked step that was not needed,
    /// never a missed check. Below the horizon steps skip the entry-check
    /// comparisons the reference loop would evaluate to no-ops.
    pub fn run_batched<S: StopRule>(&mut self, deadline: SimTime, stop: &mut S) -> Option<CpuId> {
        loop {
            if self.detection.is_some() {
                return None;
            }
            // 1. Horizon.
            let mut horizon = self.check_horizon(deadline);
            loop {
                // 2. Pick.
                let cpu = self.pick_next_cpu();
                let t = self.cpu_now[cpu.index()];
                if t >= deadline {
                    return None;
                }
                let checked = t >= horizon;
                if !checked {
                    // 3. Fused hypervisor span. It stops on a detection
                    // and on a dirtied horizon, handled exactly as after a
                    // single unchecked step.
                    let budget = stop.span_budget();
                    if budget > 0 {
                        let span = self.fused_hv_run(cpu, horizon, stop.marker(), budget);
                        if span > 0 {
                            let frozen = self.detection.is_some();
                            stop.after_span(span - frozen as u64);
                            if frozen {
                                return None;
                            }
                            if self.horizon_dirty {
                                self.horizon_dirty = false;
                                horizon = self.check_horizon(deadline);
                            }
                            continue;
                        }
                    }
                    // 4. Idle window.
                    if self.fused_idle_window(cpu, horizon, stop.marker()) > 0 {
                        continue;
                    }
                }
                // 5. Single step.
                let out = if checked {
                    self.step(cpu)
                } else {
                    self.step_unchecked(cpu)
                };
                // 6. Stop rule.
                if stop.after_step(self, cpu, out) {
                    return Some(cpu);
                }
                // 7. A checked step fired its due checks and moved their
                // deadlines: recompute the horizon.
                if checked {
                    break;
                }
                if self.detection.is_some() {
                    return None;
                }
                if self.horizon_dirty {
                    self.horizon_dirty = false;
                    horizon = self.check_horizon(deadline);
                }
            }
        }
    }

    /// The earliest time at which a hoisted per-step check could matter.
    #[inline]
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
    /// * the run is capped at the stop rule's span budget and its step
    ///   count reported to the rule in bulk, so no step the rule must see
    ///   (an injector fire attempt) is ever buried inside a fused run.
    #[inline]
    fn fused_hv_run(
        &mut self,
        cpu: CpuId,
        horizon: SimTime,
        marker: Option<SimTime>,
        cap: u64,
    ) -> u64 {
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
    #[inline]
    fn fused_idle_window(
        &mut self,
        first: CpuId,
        horizon: SimTime,
        marker: Option<SimTime>,
    ) -> u64 {
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
    #[inline]
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
