//! One fault-injection trial (Section VI-C): boot, run, inject, recover,
//! classify.

use nlh_core::{RecoveryMechanism, RecoveryPlan, RecoveryReport};
use nlh_hv::hypercalls::OpSupport;
use nlh_hv::{CpuId, Hypervisor, MachineConfig, StepOutcome};
use nlh_inject::{FaultType, InjectionOutcome, InjectionPoint, Injector};
use nlh_sim::SimDuration;
use serde::{Deserialize, Serialize};

use crate::classify::{classify, TrialClass};
use crate::record::{EventRing, RecordedOutcome, TrialEventKind, TrialRecord};
use crate::setup::{SetupKind, SystemLayout};

/// Second-level trigger budget: micro-ops executed in the hypervisor
/// before injection (the paper uses 0–20 000 instructions; micro-ops are
/// coarser by roughly 10×).
pub const MAX_TRIGGER_OPS: u64 = 2_000;

/// Configuration of one trial.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TrialConfig {
    /// The system configuration.
    pub setup: SetupKind,
    /// The fault type to inject.
    pub fault: FaultType,
    /// Trial seed (drives everything deterministically).
    pub seed: u64,
    /// Machine parameters.
    pub machine: MachineConfig,
}

impl TrialConfig {
    /// A trial on the default small campaign machine.
    pub fn new(setup: SetupKind, fault: FaultType, seed: u64) -> Self {
        TrialConfig {
            setup,
            fault,
            seed,
            machine: MachineConfig::small(),
        }
    }
}

/// Raw observations collected while running a trial (input to
/// classification).
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct TrialObservations {
    /// A detector fired.
    pub detected: bool,
    /// Recovery could not be attempted (mechanism returned an error).
    pub recovery_error: Option<String>,
    /// A second detection occurred after recovery.
    pub second_detection: bool,
    /// Reason text of the second detection.
    pub second_detection_reason: Option<String>,
}

/// The result of one trial.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TrialResult {
    /// How the injected fault manifested (None if the trigger never fired,
    /// which does not happen in practice).
    pub injection: Option<InjectionOutcome>,
    /// Raw observations.
    pub observations: TrialObservations,
    /// The recovery report, if recovery ran.
    pub recovery: Option<RecoveryReport>,
    /// Final classification.
    pub class: TrialClass,
    /// Simulation steps executed by the trial body (campaign telemetry
    /// divides the shard total by wall time for its steps/sec counter).
    /// Deterministic per config, so it participates in `PartialEq`: the
    /// batched and reference trial loops must execute identical step
    /// sequences, not merely reach the same classification.
    pub steps: u64,
}

/// Options for [`run_trial_with`], the one trial entry point.
#[derive(Debug, Clone)]
pub struct TrialRunOptions {
    /// Drive the hypervisor through the batched fast path (`true`, the
    /// default) or the reference loop: one fully checked `step_any` +
    /// `on_step` per iteration. Both execute the same step sequence; the
    /// reference loop is the oracle the differential tests pin the fast
    /// path against.
    pub batched: bool,
    /// Draw the second-level trigger's micro-op budget from this range
    /// instead of the full `[0, MAX_TRIGGER_OPS)`. The coverage-guided
    /// campaign steers with this; replay restores it.
    pub trigger_ops: Option<(u64, u64)>,
    /// When `false`, run the trial without ever arming the injector: a
    /// fault-free reference execution whose step sequence is identical to
    /// an injected run's up to the injection step (the bisection oracle's
    /// baseline).
    pub inject: bool,
    /// Stop the trial body after this many steps (divergence bisection
    /// probes a prefix and fingerprints the machine). Requires
    /// `batched == false`: the batched path cannot stop mid-stretch.
    pub step_limit: Option<u64>,
    /// Hold the armed injector until the struck CPU executes inside this
    /// handler family (see [`Injector::steer_to_handler`]). The
    /// device-heavy campaigns steer into `HandlerKind::VirtioMmio` to land
    /// faults mid-virtqueue-transaction; replay restores the filter.
    pub steer_handler: Option<nlh_hv::HandlerKind>,
    /// Delay a steered injection by this many additional micro-ops executed
    /// inside the steered handler (see [`Injector::with_steer_depth`]):
    /// `0` keeps the historical first-op-in-handler behaviour, nonzero
    /// pushes the fault into the handler's mutation window. Ignored when
    /// `steer_handler` is `None`; replay restores it.
    pub steer_depth: u64,
}

impl Default for TrialRunOptions {
    fn default() -> Self {
        TrialRunOptions {
            batched: true,
            trigger_ops: None,
            inject: true,
            step_limit: None,
            steer_handler: None,
            steer_depth: 0,
        }
    }
}

/// Runs the trial body — inject, detect, recover, classify — on an
/// already-booted system, returning the result, the trial's event record
/// (enough to replay the trial bit-identically, see
/// [`TrialRecord::replay`]) and the final machine state.
///
/// The system comes from [`build_system`](crate::build_system) (a cold
/// boot) or [`BootCache::checkout`](crate::BootCache::checkout) (a warm
/// start); both produce identical results (differential-tested).
///
/// With default options the hypervisor runs through its one batched
/// stepping loop with the injector as its stop rule
/// ([`Injector::run_until`]): the loop races through the pre-trigger
/// window, spends the micro-op budget in fused spans, stops on the exact
/// step the fault fires on, and after injection runs on as a plain
/// batched run. The executed step sequence — and therefore the
/// [`TrialResult`] — is bit-identical to the reference loop selected by
/// `TrialRunOptions { batched: false, .. }`. Recording only observes rare
/// events (trigger fire, injection, detection, recovery transitions),
/// never the per-step hot path.
///
/// This is [`run_trial_group`] with a group of one.
pub fn run_trial_with(
    hv: Hypervisor,
    layout: &SystemLayout,
    config: &TrialConfig,
    mechanism: &dyn RecoveryMechanism,
    opts: TrialRunOptions,
) -> (TrialResult, TrialRecord, Hypervisor) {
    let mut out = None;
    let solo = Sibling {
        config: config.clone(),
        mechanism,
        opts,
    };
    run_trial_group(hv, layout, &[solo], |_, r, record, hv| {
        out = Some((r, record, hv));
    });
    out.expect("a group of one finishes one trial")
}

/// One trial of a group: what [`run_trial_with`] takes besides the
/// machine.
pub struct Sibling<'a> {
    /// The trial; siblings share its setup, seed and machine, and may
    /// differ in fault.
    pub config: TrialConfig,
    /// The recovery mechanism; siblings share its `OpSupport`.
    pub mechanism: &'a dyn RecoveryMechanism,
    /// The options; siblings share `batched`, `inject` and `step_limit`,
    /// and may differ in trigger window, steer handler and steer depth.
    pub opts: TrialRunOptions,
}

/// Runs one trial for each of several siblings that share a setup, seed,
/// machine and [`OpSupport`](nlh_hv::hypercalls::OpSupport), simulating
/// the parts they share once.
///
/// The trial forks at two points and rejoins at a third, so the group
/// runs as a tree:
///
/// 1. **The arming step.** Before its counter arms, an injector is only a
///    clock marker at `fire_at`, which the trial seed alone draws (ahead
///    of the ops budget), and a mechanism reaches the machine only through
///    its `op_support`. So every sibling executes the same steps up to the
///    first one whose clock reaches `fire_at` ([`ArmedTrial`]). Siblings
///    that differ in their injector — fault, trigger window, steer
///    handler or steer depth — branch there: each branch feeds the
///    arming step to its own injector. When every sibling has the same
///    injector there is no branch and no copy.
/// 2. **The first detection.** Within a branch, siblings differ only in
///    mechanism, so the branch runs once to its first detection and
///    finishes once per mechanism from its own copy of the machine,
///    injector, record and observations. A branch that ends before any
///    detection (a non-manifested or SDC fault, an undetected one) is
///    shared whole: every sibling gets the same result, and records that
///    differ only in the mechanism name.
/// 3. **The recovered machine.** Every mechanism recovers its own copy of
///    the detection's machine, so its report, record events and any
///    recovery error are its own. Mechanisms whose
///    [`plan`](RecoveryMechanism::plan)s for that machine are equal (and
///    `Some`) leave the same machine, so only the first of them runs on to
///    the trial's end; each later one takes over that run's outcome
///    (class, observations, steps, the events recorded after recovery and
///    the final machine). On a machine without virtio devices the ladder's
///    top two rungs share this run.
///
/// The first branch runs on the arming step's machine and the others on
/// copies of a clone of it; within a branch, every mechanism but the last
/// recovers a clone of the detection's machine, and the last takes it.
/// `done(k, result, record, hv)` receives sibling `k`'s trial as soon as
/// it finishes, branch by branch and in sibling order within a branch;
/// each one equals what [`run_trial_with`] returns for that sibling
/// alone. Besides the running copy, at most the arming step's and one
/// detection's machine are alive, plus one finished run's final machine
/// per recovery plan that a later mechanism of the branch still waits for.
///
/// # Panics
///
/// Panics if `siblings` is empty or its members do not share what they
/// must.
pub fn run_trial_group(
    mut hv: Hypervisor,
    layout: &SystemLayout,
    siblings: &[Sibling<'_>],
    mut done: impl FnMut(usize, TrialResult, TrialRecord, Hypervisor),
) {
    let lead = siblings
        .first()
        .expect("a trial group has at least one sibling");
    // The trial body's first call: a traced mechanism marks the body's
    // start on it.
    hv.support = lead.mechanism.op_support();
    assert_support(hv.support, &siblings[1..]);
    let branches = branches(&lead.config, &lead.opts, siblings);
    if let [whole] = branches.as_slice() {
        let ctx = TrialBounds::new(layout, lead, hv.steps_executed());
        TrialRun::new(hv, lead).run_branch(siblings, whole, None, &ctx, &mut done);
    } else {
        ArmedTrial::advance(hv, lead).fork_branches(layout, siblings, &branches, &mut done);
    }
}

/// A trial run once up to its arming step: the first singly dispatched
/// step whose clock reaches the first-level trigger's `fire_at`, executed
/// but fed to no injector yet. [`run_trial_group`] forks here; a caller
/// that learns its siblings' trigger windows only later (a sampled cell's
/// coverage map picks each trial's window from the outcomes before it)
/// can run this part first and fork it once the windows are known.
#[derive(Clone)]
pub struct ArmedTrial {
    hv: Hypervisor,
    /// The trial and options the shared part ran with.
    config: TrialConfig,
    opts: TrialRunOptions,
    /// The arming step's CPU and outcome; `None` if the trial ended, hit
    /// its step limit or detected first (or never injects).
    arm: Option<(CpuId, StepOutcome)>,
    steps_before: u64,
}

impl ArmedTrial {
    /// Runs the part of the trial that every sibling of `lead` shares.
    pub fn run(mut hv: Hypervisor, lead: &Sibling<'_>) -> ArmedTrial {
        hv.support = lead.mechanism.op_support();
        ArmedTrial::advance(hv, lead)
    }

    fn advance(mut hv: Hypervisor, lead: &Sibling<'_>) -> ArmedTrial {
        let opts = &lead.opts;
        let steps_before = hv.steps_executed();
        let trial_end = trial_end(&lead.config);
        let waiting = injector(lead);
        let arm = loop {
            let limited = opts
                .step_limit
                .is_some_and(|limit| hv.steps_executed() - steps_before >= limit);
            if !opts.inject || limited || hv.now() >= trial_end || hv.detection().is_some() {
                break None;
            }
            if opts.batched {
                if let Some(arm) = waiting.run_to_arm(&mut hv, trial_end) {
                    break Some(arm);
                }
            } else {
                let (cpu, out) = hv.step_any();
                if hv.cpu_now(cpu) >= waiting.fire_at() {
                    break Some((cpu, out));
                }
            }
        };
        ArmedTrial {
            hv,
            config: lead.config.clone(),
            opts: lead.opts.clone(),
            arm,
            steps_before,
        }
    }

    /// Finishes the trial once per sibling, each equal to what
    /// [`run_trial_with`] returns for it alone (see [`run_trial_group`],
    /// whose arming-step fork this is).
    ///
    /// # Panics
    ///
    /// Panics if `siblings` is empty or a member differs from the
    /// sibling the shared part ran for in what it must share.
    pub fn fork(
        self,
        layout: &SystemLayout,
        siblings: &[Sibling<'_>],
        mut done: impl FnMut(usize, TrialResult, TrialRecord, Hypervisor),
    ) {
        let branches = self.branches(siblings);
        self.fork_branches(layout, siblings, &branches, &mut done);
    }

    fn fork_branches(
        self,
        layout: &SystemLayout,
        siblings: &[Sibling<'_>],
        branches: &[Vec<usize>],
        done: &mut impl FnMut(usize, TrialResult, TrialRecord, Hypervisor),
    ) {
        // The first branch runs on the machine itself and the others on
        // a clone taken before it, the last on the clone itself: a clone
        // holds each vector at its length, without the headroom the
        // machine grew, so the copy that waits is smaller.
        let mut first = Some(self.hv);
        let mut kept = None;
        let machine = |last: bool| match first.take() {
            Some(hv) => {
                kept = (!last).then(|| hv.clone());
                hv
            }
            None if last => kept.take().expect("kept for the later branches"),
            None => kept.as_ref().expect("kept for the later branches").clone(),
        };
        run_branches(
            layout,
            siblings,
            branches,
            self.arm,
            self.steps_before,
            machine,
            done,
        );
    }

    /// [`ArmedTrial::fork`] on copies: every branch runs on its own clone,
    /// and this trial stays as it is for other forks.
    pub fn fork_copy(
        &self,
        layout: &SystemLayout,
        siblings: &[Sibling<'_>],
        mut done: impl FnMut(usize, TrialResult, TrialRecord, Hypervisor),
    ) {
        let branches = self.branches(siblings);
        let machine = |_| self.hv.clone();
        run_branches(
            layout,
            siblings,
            &branches,
            self.arm,
            self.steps_before,
            machine,
            &mut done,
        );
    }

    fn branches(&self, siblings: &[Sibling<'_>]) -> Vec<Vec<usize>> {
        assert_support(self.hv.support, siblings);
        branches(&self.config, &self.opts, siblings)
    }
}

/// Runs each branch of `siblings` from the arming step `arm`, on the
/// machine `machine(last)` gives it.
fn run_branches(
    layout: &SystemLayout,
    siblings: &[Sibling<'_>],
    branches: &[Vec<usize>],
    arm: Option<(CpuId, StepOutcome)>,
    steps_before: u64,
    mut machine: impl FnMut(bool) -> Hypervisor,
    done: &mut impl FnMut(usize, TrialResult, TrialRecord, Hypervisor),
) {
    let ctx = TrialBounds::new(layout, &siblings[0], steps_before);
    for (b, members) in branches.iter().enumerate() {
        let hv = machine(b + 1 == branches.len());
        TrialRun::new(hv, &siblings[members[0]]).run_branch(siblings, members, arm, &ctx, done);
    }
}

fn assert_support(support: OpSupport, siblings: &[Sibling<'_>]) {
    assert!(
        siblings.iter().all(|s| s.mechanism.op_support() == support),
        "sibling mechanisms must share one OpSupport"
    );
}

/// Checks that `siblings` share with the trial `config` and its `opts`
/// what a group must share, and partitions them into branches: the
/// sibling indices of each injector, in order of first appearance.
fn branches(
    config: &TrialConfig,
    opts: &TrialRunOptions,
    siblings: &[Sibling<'_>],
) -> Vec<Vec<usize>> {
    let shared = |config: &TrialConfig, opts: &TrialRunOptions| {
        (
            (config.setup, config.seed, config.machine.clone()),
            (opts.batched, opts.inject, opts.step_limit),
        )
    };
    assert!(
        opts.step_limit.is_none() || !opts.batched,
        "step_limit requires the unbatched reference loop"
    );
    assert!(
        !siblings.is_empty(),
        "a trial group has at least one sibling"
    );
    let mut out: Vec<Vec<usize>> = Vec::new();
    for (k, s) in siblings.iter().enumerate() {
        assert!(
            shared(&s.config, &s.opts) == shared(config, opts),
            "siblings must share setup, seed, machine, batched, inject and step_limit"
        );
        match out
            .iter_mut()
            .find(|b| injector_key(&siblings[b[0]]) == injector_key(s))
        {
            Some(branch) => branch.push(k),
            None => out.push(vec![k]),
        }
    }
    out
}

/// What a sibling's injector is made of.
fn injector_key(s: &Sibling<'_>) -> impl PartialEq {
    (
        s.config.fault,
        trigger_ops(&s.opts),
        s.opts.steer_handler,
        steer_depth(&s.opts),
    )
}

fn trigger_ops(opts: &TrialRunOptions) -> (u64, u64) {
    opts.trigger_ops.unwrap_or((0, MAX_TRIGGER_OPS))
}

/// The steer depth the injector uses (none without a steer handler).
fn steer_depth(opts: &TrialRunOptions) -> u64 {
    if opts.steer_handler.is_some() {
        opts.steer_depth
    } else {
        0
    }
}

/// A sibling's injector, waiting. Its `fire_at` is the first draw of the
/// trial seed's stream, so siblings share it.
fn injector(s: &Sibling<'_>) -> Injector {
    let injector = Injector::with_ops_range(
        s.config.fault,
        s.config.seed.wrapping_mul(0x9E3779B97F4A7C15) ^ 0xF00D,
        s.config.setup.trigger_window(),
        trigger_ops(&s.opts),
    );
    match s.opts.steer_handler {
        Some(h) => injector
            .steer_to_handler(h)
            .with_steer_depth(s.opts.steer_depth),
        None => injector,
    }
}

fn trial_end(config: &TrialConfig) -> nlh_sim::SimTime {
    nlh_sim::SimTime::ZERO + config.setup.trial_duration()
}

/// What stays fixed for the whole trial, on every branch of a group.
struct TrialBounds<'a> {
    layout: &'a SystemLayout,
    batched: bool,
    inject: bool,
    step_limit: Option<u64>,
    trial_end: nlh_sim::SimTime,
    /// Classification deadline: 500 ms before `trial_end`.
    deadline: nlh_sim::SimTime,
    steps_before: u64,
}

impl<'a> TrialBounds<'a> {
    fn new(layout: &'a SystemLayout, s: &Sibling<'_>, steps_before: u64) -> Self {
        let trial_end = trial_end(&s.config);
        let span = trial_end.saturating_since(nlh_sim::SimTime::ZERO);
        TrialBounds {
            layout,
            batched: s.opts.batched,
            inject: s.opts.inject,
            step_limit: s.opts.step_limit,
            trial_end,
            deadline: nlh_sim::SimTime::ZERO + span.saturating_sub(SimDuration::from_millis(500)),
            steps_before,
        }
    }
}

/// Why [`TrialRun::advance`] returned.
#[derive(Clone)]
enum Stop {
    /// The first detection, before any recovery: a branch's fork point.
    Detected,
    /// A non-manifested or SDC fault, whose class is already determined.
    Determined(TrialClass),
    /// The trial's end, its step limit, or a second detection.
    End,
}

/// A trial in flight: everything a sibling owns after a fork point.
#[derive(Clone)]
struct TrialRun {
    hv: Hypervisor,
    injector: Injector,
    record: TrialRecord,
    obs: TrialObservations,
    recovery: Option<RecoveryReport>,
}

impl TrialRun {
    /// The trial of sibling `s` on `hv`, not yet stepped by its injector.
    fn new(hv: Hypervisor, s: &Sibling<'_>) -> Self {
        let injector = injector(s);
        let record = TrialRecord {
            config: s.config.clone(),
            trigger_ops: trigger_ops(&s.opts),
            steer_handler: s.opts.steer_handler,
            steer_depth: steer_depth(&s.opts),
            mechanism: s.mechanism.name().to_string(),
            fire_at: injector.fire_at(),
            ops_budget: injector.ops_budget(),
            injection: None,
            events: EventRing::new(),
            outcome: None,
        };
        TrialRun {
            hv,
            injector,
            record,
            obs: TrialObservations::default(),
            recovery: None,
        }
    }

    /// Runs the branch of `members` (sibling indices sharing this run's
    /// injector) to its end, feeding it the arming step first if the
    /// shared part stopped on one, and hands each member's trial to
    /// `done`, forking at the first detection.
    fn run_branch(
        mut self,
        siblings: &[Sibling<'_>],
        members: &[usize],
        arm: Option<(CpuId, StepOutcome)>,
        ctx: &TrialBounds,
        done: &mut impl FnMut(usize, TrialResult, TrialRecord, Hypervisor),
    ) {
        let stop = arm
            .and_then(|(cpu, out)| {
                let injected = self.injector.on_step(&mut self.hv, cpu, out);
                self.after_injector(false, injected)
            })
            .unwrap_or_else(|| self.advance(ctx));
        let (&last, earlier) = members.split_last().expect("a branch has members");
        match stop {
            Stop::Detected => self.fork_at_detection(siblings, members, ctx, done),
            stop => {
                let (r, record, hv) = self.finish(stop, ctx);
                for &k in earlier {
                    let mut own = record.clone();
                    own.mechanism = siblings[k].mechanism.name().to_string();
                    done(k, r.clone(), own, hv.clone());
                }
                let mut own = record;
                own.mechanism = siblings[last].mechanism.name().to_string();
                done(last, r, own, hv);
            }
        }
    }

    /// Steps the machine until the first detection, the trial's end, or a
    /// determined outcome.
    fn advance(&mut self, ctx: &TrialBounds) -> Stop {
        while self.hv.now() < ctx.trial_end {
            if let Some(limit) = ctx.step_limit {
                if self.hv.steps_executed() - ctx.steps_before >= limit {
                    return Stop::End;
                }
            }
            if let Some(d) = self.hv.detection() {
                if !self.obs.detected {
                    return Stop::Detected;
                }
                self.obs.second_detection = true;
                self.obs.second_detection_reason = Some(d.reason.clone());
                self.record.events.push(
                    d.at,
                    TrialEventKind::SecondDetection,
                    format!("{:?} cpu{} {}", d.kind, d.cpu.index(), d.reason),
                );
                return Stop::End;
            } else if !ctx.inject {
                // Fault-free reference run: no injector to consult.
                if ctx.batched {
                    self.hv.run_until(ctx.trial_end);
                } else {
                    self.hv.step_any();
                }
            } else {
                let (hv, injector) = (&mut self.hv, &mut self.injector);
                let was_armed = injector.armed_at().is_some();
                let injected_now = if ctx.batched {
                    injector.run_until(hv, ctx.trial_end)
                } else {
                    let (cpu, out) = hv.step_any();
                    injector.on_step(hv, cpu, out)
                };
                if let Some(stop) = self.after_injector(was_armed, injected_now) {
                    return stop;
                }
            }
        }
        Stop::End
    }

    /// Records what the injector just did — armed (if it was not armed
    /// before), injected — and returns the determined outcome of a fault
    /// that can no longer be detected.
    fn after_injector(&mut self, was_armed: bool, injected_now: bool) -> Option<Stop> {
        let injector = &self.injector;
        if let (false, Some(at)) = (was_armed, injector.armed_at()) {
            self.record.events.push(
                at,
                TrialEventKind::TriggerFired,
                format!("ops_budget={}", injector.ops_budget()),
            );
        }
        if !injected_now {
            return None;
        }
        self.record.injection = injector.injection_point().copied();
        if let Some(p) = &self.record.injection {
            self.record.events.push(
                p.at,
                TrialEventKind::Injected,
                format!(
                    "cpu={} handler={} op={}/{} outcome={:?}",
                    p.cpu.index(),
                    p.handler,
                    p.op_index,
                    p.program_len,
                    injector.outcome()
                ),
            );
        }
        // Short-circuit: a non-manifested or SDC fault can no longer
        // trigger detection in this model; the classification is already
        // determined, so skip simulating the rest of the run.
        if self.hv.detection().is_some() {
            return None;
        }
        match injector.outcome() {
            Some(InjectionOutcome::NonManifested) => {
                Some(Stop::Determined(TrialClass::NonManifested))
            }
            Some(InjectionOutcome::Sdc) => Some(Stop::Determined(TrialClass::Sdc)),
            _ => None,
        }
    }

    /// Finishes the branch of `members` once per member from its first
    /// detection, handing each trial to `done` in member order.
    ///
    /// Every member recovers its own copy of the detection's machine (the
    /// last member the machine itself), so its recovery report, record
    /// events and any recovery error are its own. The first member with a
    /// given [`RecoveryPlan`] runs on to the trial's end; each later member
    /// with that plan takes over its post-recovery run, which equal plans
    /// make the same run. That run is kept only while such a member is
    /// still to come.
    fn fork_at_detection(
        self,
        siblings: &[Sibling<'_>],
        members: &[usize],
        ctx: &TrialBounds,
        done: &mut impl FnMut(usize, TrialResult, TrialRecord, Hypervisor),
    ) {
        let plans: Vec<Option<RecoveryPlan>> = members
            .iter()
            .map(|&k| siblings[k].mechanism.plan(&self.hv))
            .collect();
        let mut kept: Vec<(RecoveryPlan, PostRecovery)> = Vec::new();
        let mut detection = Some(self);
        for (i, &k) in members.iter().enumerate() {
            let mut run = if i + 1 == members.len() {
                detection
                    .take()
                    .expect("the last member takes the detection")
            } else {
                detection.clone().expect("kept for the later members")
            };
            let recovered = run.recover(siblings[k].mechanism);
            let plan = plans[i].filter(|_| recovered);
            let pending = plan.is_some() && plans[i + 1..].contains(&plan);
            let taken = plan.and_then(|p| kept.iter().position(|(q, _)| *q == p));
            let (r, record, hv) = match taken {
                Some(j) if pending => run.take_over(kept[j].1.clone(), ctx),
                Some(j) => run.take_over(kept.swap_remove(j).1, ctx),
                None if !recovered => run.finish(Stop::End, ctx),
                None => {
                    let (stop, on) = run.run_on(ctx, pending);
                    kept.extend(plan.zip(on));
                    run.finish(stop, ctx)
                }
            };
            done(k, r, record, hv);
        }
    }

    /// Recovers from the pending first detection with `mechanism`;
    /// `false` if recovery could not run, which ends the trial.
    fn recover(&mut self, mechanism: &dyn RecoveryMechanism) -> bool {
        self.record.mechanism = mechanism.name().to_string();
        self.obs.detected = true;
        let (hv, events) = (&mut self.hv, &mut self.record.events);
        if let Some(d) = hv.detection() {
            events.push(
                d.at,
                TrialEventKind::DetectorFired,
                format!("{:?} cpu{} {}", d.kind, d.cpu.index(), d.reason),
            );
        }
        let started = hv.now_max();
        events.push(started, TrialEventKind::RecoveryStarted, mechanism.name());
        match mechanism.recover(hv) {
            Ok(r) => {
                for step in &r.steps {
                    events.push(
                        started,
                        TrialEventKind::RecoveryPhase,
                        format!("{} {:?}", step.name, step.duration),
                    );
                }
                events.push(
                    hv.now_max(),
                    TrialEventKind::RecoveryDone,
                    format!("total {:?}", r.total),
                );
                self.recovery = Some(r);
                true
            }
            Err(e) => {
                events.push(hv.now_max(), TrialEventKind::RecoveryAborted, e.to_string());
                self.obs.recovery_error = Some(e.to_string());
                false
            }
        }
    }

    /// Runs the recovered trial on to its end. With `keep`, also returns
    /// what the run did, for a later member whose recovery leaves the same
    /// machine.
    fn run_on(&mut self, ctx: &TrialBounds, keep: bool) -> (Stop, Option<PostRecovery>) {
        if !keep {
            return (self.advance(ctx), None);
        }
        let recovered = debug_digest(&self.hv);
        let own = std::mem::take(&mut self.record.events);
        let stop = self.advance(ctx);
        let events = std::mem::replace(&mut self.record.events, own);
        self.record.events.append(&events);
        let on = PostRecovery {
            stop: stop.clone(),
            hv: self.hv.clone(),
            injector: self.injector.clone(),
            obs: self.obs.clone(),
            injection: self.record.injection,
            events,
            recovered,
        };
        (stop, Some(on))
    }

    /// Finishes the recovered trial with the post-recovery run of an
    /// earlier member whose plan equals this member's.
    fn take_over(
        mut self,
        on: PostRecovery,
        ctx: &TrialBounds,
    ) -> (TrialResult, TrialRecord, Hypervisor) {
        debug_assert_eq!(
            debug_digest(&self.hv),
            on.recovered,
            "equal recovery plans left different machines"
        );
        self.hv = on.hv;
        self.injector = on.injector;
        self.obs = on.obs;
        self.record.injection = on.injection;
        self.record.events.append(&on.events);
        self.finish(on.stop, ctx)
    }

    /// Classifies the trial where [`TrialRun::advance`] left it.
    fn finish(mut self, stop: Stop, ctx: &TrialBounds) -> (TrialResult, TrialRecord, Hypervisor) {
        let steps = self.hv.steps_executed() - ctx.steps_before;
        let now = self.hv.now_max();
        // A step-limited probe that stops mid-trial has no outcome yet, so
        // its record's outcome stays empty; a determined class is the
        // outcome wherever the probe stopped.
        let (result, outcome) = match stop {
            Stop::Determined(class) => (
                TrialResult {
                    injection: self.injector.outcome(),
                    class,
                    observations: self.obs,
                    recovery: None,
                    steps,
                },
                true,
            ),
            Stop::Detected | Stop::End => (
                TrialResult {
                    injection: self.injector.outcome(),
                    class: classify(&self.hv, ctx.layout, &self.obs, now, ctx.deadline),
                    observations: self.obs,
                    recovery: self.recovery,
                    steps,
                },
                ctx.step_limit.is_none(),
            ),
        };
        if outcome {
            finish_record(&mut self.record, &result, now);
        }
        (result, self.record, self.hv)
    }
}

/// Everything [`TrialRun::advance`] writes from a recovery to the trial's
/// end: what members with one recovery plan share.
#[derive(Clone)]
struct PostRecovery {
    stop: Stop,
    hv: Hypervisor,
    injector: Injector,
    obs: TrialObservations,
    injection: Option<InjectionPoint>,
    /// The events the run pushed to the record.
    events: EventRing,
    /// The recovered machine's [`debug_digest`].
    recovered: u64,
}

/// `hv`'s `state_digest` in debug builds, where sharing a post-recovery
/// run checks the plan contract; 0 in release builds.
fn debug_digest(hv: &Hypervisor) -> u64 {
    if cfg!(debug_assertions) {
        hv.state_digest()
    } else {
        0
    }
}

fn finish_record(record: &mut TrialRecord, result: &TrialResult, now: nlh_sim::SimTime) {
    record.events.push(
        now,
        TrialEventKind::Classified,
        format!("{:?}", result.class),
    );
    record.outcome = Some(RecordedOutcome {
        class: result.class.clone(),
        injection: result.injection,
        steps: result.steps,
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::boot_cache::BootCache;
    use crate::setup::{build_system, BenchKind};
    use nlh_core::{Microreboot, Microreset};

    /// A cold-booted trial with default options.
    fn cold_trial(config: &TrialConfig, mechanism: &dyn RecoveryMechanism) -> TrialResult {
        let (hv, layout) = build_system(config.machine.clone(), config.setup, config.seed);
        run_trial_with(hv, &layout, config, mechanism, TrialRunOptions::default()).0
    }

    #[test]
    fn failstop_trial_with_full_nilihype_usually_succeeds() {
        let mech = Microreset::nilihype();
        let mut successes = 0;
        let n = 20;
        for seed in 0..n {
            let cfg = TrialConfig::new(
                SetupKind::OneAppVm(BenchKind::UnixBench),
                FaultType::Failstop,
                seed,
            );
            let r = cold_trial(&cfg, &mech);
            assert!(r.observations.detected, "failstop is always detected");
            if r.class.is_success() {
                successes += 1;
            }
        }
        assert!(
            successes >= n * 7 / 10,
            "full NiLiHype should succeed most of the time: {successes}/{n}"
        );
    }

    #[test]
    fn basic_nilihype_never_succeeds() {
        let mech = Microreset::with_enhancements(nlh_core::Enhancements::none());
        for seed in 0..10 {
            let cfg = TrialConfig::new(
                SetupKind::OneAppVm(BenchKind::UnixBench),
                FaultType::Failstop,
                seed,
            );
            let r = cold_trial(&cfg, &mech);
            assert!(
                !r.class.is_success(),
                "seed {seed}: basic microreset cannot succeed, got {:?}",
                r.class
            );
        }
    }

    #[test]
    fn rehype_failstop_trial_succeeds_too() {
        let mech = Microreboot::rehype();
        let mut successes = 0;
        let n = 10;
        for seed in 100..100 + n {
            let cfg = TrialConfig::new(
                SetupKind::OneAppVm(BenchKind::UnixBench),
                FaultType::Failstop,
                seed,
            );
            if cold_trial(&cfg, &mech).class.is_success() {
                successes += 1;
            }
        }
        assert!(successes >= n * 6 / 10, "{successes}/{n}");
    }

    #[test]
    fn register_faults_mostly_non_manifested() {
        let mech = Microreset::nilihype();
        let mut nm = 0;
        let n = 30;
        for seed in 0..n {
            let cfg = TrialConfig::new(
                SetupKind::OneAppVm(BenchKind::UnixBench),
                FaultType::Register,
                seed,
            );
            if cold_trial(&cfg, &mech).class == TrialClass::NonManifested {
                nm += 1;
            }
        }
        assert!(nm > n / 2, "{nm}/{n} non-manifested");
    }

    #[test]
    fn warm_trial_equals_cold_trial() {
        let cache = BootCache::new();
        let mech = Microreset::nilihype();
        for seed in [0, 17, 4096] {
            let cfg = TrialConfig::new(
                SetupKind::OneAppVm(BenchKind::UnixBench),
                FaultType::Failstop,
                seed,
            );
            let cold = cold_trial(&cfg, &mech);
            let (hv, layout) = cache.checkout(&cfg.machine, cfg.setup, cfg.seed);
            let (warm, _, _) = run_trial_with(hv, &layout, &cfg, &mech, TrialRunOptions::default());
            assert_eq!(cold, warm, "seed {seed}");
        }
    }

    #[test]
    fn trial_is_deterministic() {
        let mech = Microreset::nilihype();
        let cfg = TrialConfig::new(
            SetupKind::OneAppVm(BenchKind::UnixBench),
            FaultType::Failstop,
            1234,
        );
        let a = cold_trial(&cfg, &mech);
        let b = cold_trial(&cfg, &mech);
        assert_eq!(a.class, b.class);
        assert_eq!(a.injection, b.injection);
    }
}
