//! A Gigan-style software-implemented fault injector (Section VI-C).
//!
//! Faults are injected through a **two-level chained trigger**: a timer
//! fires at a random point of the benchmark run, arming a counter that
//! fires after a random number of instructions executed *in the target
//! hypervisor* — guaranteeing the fault lands while hypervisor code is
//! running, uniformly over hypervisor execution. In this reproduction the
//! "instructions" are hypervisor micro-ops, so the fault strikes between
//! two arbitrary state updates of an arbitrary handler.
//!
//! Three fault types are modelled, as in the paper:
//!
//! * **Failstop** — the program counter is forced to 0: an immediate fatal
//!   exception, detected on the spot, with no state corruption.
//! * **Register** — a bit flip in a random architectural register.
//! * **Code** — a bit flip in the instruction stream near the program
//!   counter (repaired at detection, so effectively transient).
//!
//! For Register and Code faults the *manifestation* of the bit flip
//! (non-manifested / silent data corruption / detected) cannot be derived
//! from a behavioural simulator; the [`ManifestModel`] reproduces the
//! paper's measured outcome breakdown (Section VII-A: Register
//! 74.8/5.6/19.6, Code 35.0/12.1/52.9) as calibrated constants. Everything
//! *after* manifestation — what state is corrupted, what residue the
//! abandoned handlers leave, and whether recovery copes — is mechanistic.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

use nlh_hv::chaos::CorruptionKind;
use nlh_hv::{CpuId, HandlerKind, Hypervisor, StepOutcome, StopRule};
use nlh_sim::{Pcg64, SimTime};
use serde::{Deserialize, Serialize};

/// The fault types of the paper's campaigns.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum FaultType {
    /// Program counter forced to 0 (immediate detected crash).
    Failstop,
    /// Transient bit flip in a random register.
    Register,
    /// Transient bit flip in the instruction stream.
    Code,
}

impl FaultType {
    /// All fault types, in the paper's presentation order.
    pub const ALL: [FaultType; 3] = [FaultType::Failstop, FaultType::Register, FaultType::Code];

    /// Parses the name produced by the `Display` impl.
    pub fn from_name(s: &str) -> Option<FaultType> {
        match s {
            "Failstop" => Some(FaultType::Failstop),
            "Register" => Some(FaultType::Register),
            "Code" => Some(FaultType::Code),
            _ => None,
        }
    }
}

impl std::fmt::Display for FaultType {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FaultType::Failstop => write!(f, "Failstop"),
            FaultType::Register => write!(f, "Register"),
            FaultType::Code => write!(f, "Code"),
        }
    }
}

/// How an injected fault manifested.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum InjectionOutcome {
    /// No observable abnormal behaviour.
    NonManifested,
    /// Silent data corruption: detectors silent, benchmark output wrong.
    Sdc,
    /// A detector fired (panic or, after the watchdog latency, hang);
    /// recovery will be triggered.
    Detected,
}

/// Manifestation probabilities for one fault type.
///
/// `p_nonmanifested + p_sdc + p_detected` must be 1. Within detected cases,
/// `p_hang` selects watchdog-detected hangs (longer detection latency →
/// more propagation), the rest are immediate panics. `propagation` gives
/// the probability of 0, 1, 2, ... additional state corruptions applied
/// before detection.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ManifestModel {
    /// P(no observable effect).
    pub p_nonmanifested: f64,
    /// P(silent data corruption).
    pub p_sdc: f64,
    /// P(detected).
    pub p_detected: f64,
    /// Within detected: P(hang rather than immediate panic).
    pub p_hang: f64,
    /// Distribution over the number of propagated corruptions.
    pub propagation: Vec<f64>,
}

impl ManifestModel {
    /// The model for a fault type, calibrated to Section VII-A.
    pub fn for_fault(fault: FaultType) -> Self {
        match fault {
            FaultType::Failstop => ManifestModel {
                p_nonmanifested: 0.0,
                p_sdc: 0.0,
                p_detected: 1.0,
                p_hang: 0.0,
                propagation: vec![1.0], // failstop cannot corrupt state
            },
            FaultType::Register => ManifestModel {
                p_nonmanifested: 0.748,
                p_sdc: 0.056,
                p_detected: 0.196,
                p_hang: 0.25,
                propagation: vec![0.55, 0.33, 0.12],
            },
            FaultType::Code => ManifestModel {
                p_nonmanifested: 0.350,
                p_sdc: 0.121,
                p_detected: 0.529,
                // Longer detection latency (Section VII-A: Code faults are
                // detected later, so errors propagate further).
                p_hang: 0.35,
                propagation: vec![0.45, 0.32, 0.16, 0.07],
            },
        }
    }
}

/// Relative likelihood of each propagation target.
///
/// These weights shape *where* errors propagate before detection. Page
/// frames and scheduler metadata dominate (they are the biggest mutable
/// structures touched by hot paths); the heap free list and
/// boot-reinitialized scratch are the targets that give the reboot-based
/// ReHype its small recovery-rate edge; recovery-critical state and the
/// PrivVM reproduce the paper's top recovery-failure causes.
pub fn corruption_weights() -> Vec<(CorruptionKind, f64)> {
    vec![
        (CorruptionKind::PageFrame, 0.36),
        (CorruptionKind::SchedMetadata, 0.21),
        (CorruptionKind::TimerHeapNode, 0.12),
        (CorruptionKind::HeapFreelist, 0.01),
        (CorruptionKind::BootScratch, 0.02),
        (CorruptionKind::RecoveryCritical, 0.07),
        (CorruptionKind::GuestData, 0.14),
        (CorruptionKind::PrivVm, 0.07),
    ]
}

/// Where a fault actually landed: the handler context at the moment of
/// injection. Captured by the injector at fire time for the trial record,
/// and the unit the campaign coverage map counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InjectionPoint {
    /// The CPU the fault struck.
    pub cpu: CpuId,
    /// The stepped CPU's local clock at injection.
    pub at: SimTime,
    /// The handler family executing when the fault struck.
    pub handler: HandlerKind,
    /// How many of the handler's micro-ops had already retired (the top
    /// frame's program counter).
    pub op_index: usize,
    /// Total micro-ops in the struck handler's program.
    pub program_len: usize,
    /// The second-level trigger's micro-op budget that led here.
    pub ops_budget: u64,
}

/// Injector phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// Waiting for the first-level timer.
    Waiting,
    /// Timer fired; counting hypervisor micro-ops.
    Counting(u64),
    /// Fault applied.
    Done,
}

/// The fault injector for one trial.
#[derive(Debug, Clone)]
pub struct Injector {
    fault: FaultType,
    model: ManifestModel,
    rng: Pcg64,
    fire_at: SimTime,
    armed_at: Option<SimTime>,
    phase: Phase,
    ops_budget: u64,
    ops_range: (u64, u64),
    only_handler: Option<HandlerKind>,
    steer_depth: u64,
    depth_left: u64,
    outcome: Option<InjectionOutcome>,
    injected_on: Option<CpuId>,
    point: Option<InjectionPoint>,
}

impl Injector {
    /// Creates an injector for one trial.
    ///
    /// The first-level trigger fires uniformly inside `window`; the second
    /// fires after a uniform number of hypervisor micro-ops in
    /// `[0, max_hv_ops)` (the paper uses 0–20 000 instructions).
    ///
    /// # Panics
    ///
    /// Panics if the window is empty.
    pub fn new(fault: FaultType, seed: u64, window: (SimTime, SimTime), max_hv_ops: u64) -> Self {
        // Delegating with [0, max) keeps the RNG draw sequence identical to
        // the historical constructor, so existing pinned-seed campaigns do
        // not drift.
        Injector::with_ops_range(fault, seed, window, (0, max_hv_ops.max(1)))
    }

    /// Creates an injector whose second-level trigger draws its micro-op
    /// budget uniformly from `[ops_range.0, ops_range.1)` instead of the
    /// full `[0, max_hv_ops)` span.
    ///
    /// This is the hook the coverage-guided campaign mode uses to steer
    /// injections into a chosen stratum of the trigger space; replay stores
    /// the range so a steered trial reproduces bit-identically.
    ///
    /// # Panics
    ///
    /// Panics if the time window or the ops range is empty.
    pub fn with_ops_range(
        fault: FaultType,
        seed: u64,
        window: (SimTime, SimTime),
        ops_range: (u64, u64),
    ) -> Self {
        let mut rng = Pcg64::seed_from_u64(seed);
        let (lo, hi) = window;
        assert!(lo < hi, "empty trigger window");
        let fire_at = SimTime::from_nanos(rng.gen_range_u64(lo.as_nanos(), hi.as_nanos()));
        let ops_budget = rng.gen_range_u64(ops_range.0, ops_range.1);
        Injector {
            model: ManifestModel::for_fault(fault),
            fault,
            rng,
            fire_at,
            armed_at: None,
            phase: Phase::Waiting,
            ops_budget,
            ops_range,
            only_handler: None,
            steer_depth: 0,
            depth_left: 0,
            outcome: None,
            injected_on: None,
            point: None,
        }
    }

    /// The fault type.
    pub fn fault(&self) -> FaultType {
        self.fault
    }

    /// When the first-level trigger fires.
    pub fn fire_at(&self) -> SimTime {
        self.fire_at
    }

    /// The clock of the step that armed the micro-op counter (the first
    /// step to reach [`Injector::fire_at`]), once armed.
    pub fn armed_at(&self) -> Option<SimTime> {
        self.armed_at
    }

    /// The manifestation outcome, once injected.
    pub fn outcome(&self) -> Option<InjectionOutcome> {
        self.outcome
    }

    /// The CPU the fault was injected on, once injected.
    pub fn injected_on(&self) -> Option<CpuId> {
        self.injected_on
    }

    /// The second-level trigger's drawn micro-op budget.
    pub fn ops_budget(&self) -> u64 {
        self.ops_budget
    }

    /// The range the micro-op budget was drawn from.
    pub fn ops_range(&self) -> (u64, u64) {
        self.ops_range
    }

    /// Restricts injection to steps executing inside the given handler
    /// family: once the micro-op budget is spent, the armed injector keeps
    /// waiting until the stepped CPU is mid-program in a matching handler —
    /// the mid-transaction fault windows the device campaigns target. The
    /// filter draws no extra randomness, so a steered trial replays
    /// bit-identically from the same seed and range.
    pub fn steer_to_handler(mut self, handler: HandlerKind) -> Self {
        self.only_handler = Some(handler);
        self
    }

    /// Delays a steered injection by `depth` additional micro-ops executed
    /// *inside* the steered handler (carrying across program instances if
    /// one retires first). Without it a steered fault almost always lands
    /// on the first op of a matching program — before the handler has
    /// mutated anything — because the spent budget usually runs out
    /// elsewhere. A nonzero depth pushes the fault into the handler's
    /// mutation window. No extra randomness: callers derive the depth from
    /// the trial seed and replay restores it verbatim.
    pub fn with_steer_depth(mut self, depth: u64) -> Self {
        self.steer_depth = depth;
        self.depth_left = depth;
        self
    }

    /// The steered in-handler op delay, if any.
    pub fn steer_depth(&self) -> u64 {
        self.steer_depth
    }

    /// Where the fault landed (handler, op index, CPU, time), once
    /// injected.
    pub fn injection_point(&self) -> Option<&InjectionPoint> {
        self.point.as_ref()
    }

    /// Runs `hv` batched toward `deadline` through the rest of the trigger
    /// chain and injects on the step the chain fires on: the injector is
    /// the [`StopRule`] of [`Hypervisor::run_batched`]. Returns `true` if
    /// the fault was injected; otherwise the deadline (or an organic
    /// detection) stopped the run with the chain's progress carried over.
    /// After the fault is applied the call is a plain batched run.
    ///
    /// Executes the same steps and draws the same randomness as feeding
    /// every step of [`Hypervisor::step_any`] to [`Injector::on_step`]
    /// (pinned by the differential tests).
    pub fn run_until(&mut self, hv: &mut Hypervisor, deadline: SimTime) -> bool {
        match hv.run_batched(deadline, self) {
            Some(cpu) => {
                self.inject(hv, cpu);
                true
            }
            None => false,
        }
    }

    /// Runs `hv` batched toward `deadline` up to the step that would arm
    /// this waiting injector's counter — the first singly dispatched step
    /// whose clock reaches [`Injector::fire_at`] — and returns that step's
    /// CPU and outcome without feeding it to the injector. `None` if the
    /// deadline or a detection stopped the run first.
    ///
    /// Until it arms, an injector is a clock marker and nothing else, so
    /// every injector with the same `fire_at` executes these steps alike:
    /// a trial group runs them once, then feeds the arming step to each
    /// sibling's own injector through [`Injector::on_step`].
    ///
    /// # Panics
    ///
    /// Panics if the injector is no longer waiting.
    pub fn run_to_arm(
        &self,
        hv: &mut Hypervisor,
        deadline: SimTime,
    ) -> Option<(CpuId, StepOutcome)> {
        assert_eq!(self.phase, Phase::Waiting, "the injector already armed");
        let mut rule = ArmRule {
            fire_at: self.fire_at,
            arm: None,
        };
        let cpu = hv.run_batched(deadline, &mut rule)?;
        Some((
            cpu,
            rule.arm.expect("the rule stops only on the arming step"),
        ))
    }

    /// Feeds one simulation step to the trigger chain; call after every
    /// [`Hypervisor::step_any`]. Returns `true` at the step that injects.
    pub fn on_step(&mut self, hv: &mut Hypervisor, cpu: CpuId, outcome: StepOutcome) -> bool {
        if self.trigger(hv, cpu, outcome) {
            self.inject(hv, cpu);
            true
        } else {
            false
        }
    }

    /// The two-level trigger automaton: advances it past one step and
    /// returns `true` if the fault must be injected right after that step.
    fn trigger(&mut self, hv: &Hypervisor, cpu: CpuId, outcome: StepOutcome) -> bool {
        if self.phase == Phase::Waiting {
            if hv.cpu_now(cpu) < self.fire_at {
                return false;
            }
            // The first-level timer fires; the armed counter may fire on
            // this very step.
            self.phase = Phase::Counting(self.ops_budget);
            self.armed_at = Some(hv.cpu_now(cpu));
        }
        let Phase::Counting(left) = self.phase else {
            return false;
        };
        if outcome != StepOutcome::HvOp {
            return false;
        }
        if left > 0 {
            self.phase = Phase::Counting(left - 1);
            return false;
        }
        // Inject only while the CPU is still inside hypervisor code: there
        // is no "between handlers" gap on real hardware — the exit path is
        // still hypervisor execution, accounted to the next entry here.
        if !hv.cpu_mid_program(cpu) {
            return false;
        }
        if let Some(filter) = self.only_handler {
            let here = hv.cpu_program_context(cpu).map(|(c, _)| c.handler_kind());
            if here != Some(filter) {
                return false;
            }
            if self.depth_left > 0 {
                self.depth_left -= 1;
                return false;
            }
        }
        true
    }

    fn inject(&mut self, hv: &mut Hypervisor, cpu: CpuId) {
        self.phase = Phase::Done;
        self.injected_on = Some(cpu);
        // `trigger` guarantees `cpu_mid_program(cpu)` here, so a program
        // context always exists.
        if let Some((cause, pc)) = hv.cpu_program_context(cpu) {
            self.point = Some(InjectionPoint {
                cpu,
                at: hv.cpu_now(cpu),
                handler: cause.handler_kind(),
                op_index: pc,
                program_len: hv.cpu_program_len(cpu).unwrap_or(pc),
                ops_budget: self.ops_budget,
            });
        }
        let roll = self.rng.gen_f64();
        let outcome = if roll < self.model.p_nonmanifested {
            InjectionOutcome::NonManifested
        } else if roll < self.model.p_nonmanifested + self.model.p_sdc {
            InjectionOutcome::Sdc
        } else {
            InjectionOutcome::Detected
        };
        self.outcome = Some(outcome);
        match outcome {
            InjectionOutcome::NonManifested => {}
            InjectionOutcome::Sdc => hv.apply_corruption(CorruptionKind::GuestData),
            InjectionOutcome::Detected => {
                // Error propagation before the detector fires.
                let n = self
                    .rng
                    .choose_weighted(&self.model.propagation)
                    .unwrap_or(0);
                let weights = corruption_weights();
                let ws: Vec<f64> = weights.iter().map(|(_, w)| *w).collect();
                for _ in 0..n {
                    if let Some(idx) = self.rng.choose_weighted(&ws) {
                        hv.apply_corruption(weights[idx].0);
                    }
                }
                if self.fault != FaultType::Failstop && self.rng.gen_bool(self.model.p_hang) {
                    // The CPU spins with interrupts off until the watchdog
                    // declares a hang (~300 ms of extra detection latency).
                    hv.wedge_cpu(cpu);
                } else {
                    hv.raise_panic(cpu, format!("injected {} fault", self.fault));
                }
            }
        }
    }
}

/// The trigger chain as a batched stop rule: waiting, it is a clock
/// marker at [`Injector::fire_at`]; counting, it lets fused spans spend
/// the remaining micro-op budget and sees every fire attempt singly; done,
/// it never stops. Drive it through [`Injector::run_until`], which applies
/// the fault on the step the rule stops at.
impl StopRule for Injector {
    fn marker(&self) -> Option<SimTime> {
        (self.phase == Phase::Waiting).then_some(self.fire_at)
    }

    fn span_budget(&self) -> u64 {
        match self.phase {
            Phase::Counting(left) => left,
            _ => u64::MAX,
        }
    }

    fn after_span(&mut self, ops: u64) {
        if let Phase::Counting(left) = &mut self.phase {
            *left -= ops;
        }
    }

    #[inline]
    fn after_step(&mut self, hv: &Hypervisor, cpu: CpuId, out: StepOutcome) -> bool {
        self.trigger(hv, cpu, out)
    }
}

/// A waiting injector's first-level trigger alone: the same clock marker,
/// stopping on the arming step instead of arming
/// ([`Injector::run_to_arm`]).
struct ArmRule {
    fire_at: SimTime,
    /// The arming step's outcome, once seen.
    arm: Option<StepOutcome>,
}

impl StopRule for ArmRule {
    fn marker(&self) -> Option<SimTime> {
        Some(self.fire_at)
    }

    #[inline]
    fn after_step(&mut self, hv: &Hypervisor, cpu: CpuId, out: StepOutcome) -> bool {
        let armed = hv.cpu_now(cpu) >= self.fire_at;
        if armed {
            self.arm = Some(out);
        }
        armed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nlh_hv::MachineConfig;

    fn window() -> (SimTime, SimTime) {
        (SimTime::from_millis(20), SimTime::from_millis(120))
    }

    fn run_one(fault: FaultType, seed: u64) -> (Option<InjectionOutcome>, Hypervisor) {
        let mut hv = Hypervisor::new(MachineConfig::small(), seed);
        let mut inj = Injector::new(fault, seed ^ 0xBEEF, window(), 2_000);
        let deadline = SimTime::from_secs(3);
        while hv.detection().is_none() && hv.now() < deadline {
            let (cpu, out) = hv.step_any();
            inj.on_step(&mut hv, cpu, out);
            if matches!(
                inj.outcome(),
                Some(InjectionOutcome::NonManifested) | Some(InjectionOutcome::Sdc)
            ) {
                break;
            }
        }
        (inj.outcome(), hv)
    }

    #[test]
    fn failstop_always_detected_immediately() {
        for seed in 0..20 {
            let (outcome, hv) = run_one(FaultType::Failstop, seed);
            assert_eq!(outcome, Some(InjectionOutcome::Detected), "seed {seed}");
            let det = hv.detection().expect("must be detected");
            assert_eq!(det.kind, nlh_hv::detect::DetectionKind::Panic);
        }
    }

    #[test]
    fn fault_lands_inside_hypervisor_execution() {
        let (outcome, hv) = run_one(FaultType::Failstop, 42);
        assert_eq!(outcome, Some(InjectionOutcome::Detected));
        let det = hv.detection().unwrap();
        assert!(det.at >= SimTime::from_millis(20));
    }

    #[test]
    fn register_breakdown_roughly_matches_paper() {
        let mut counts = [0usize; 3];
        let n = 600;
        for seed in 0..n {
            let (outcome, _) = run_one(FaultType::Register, seed as u64);
            match outcome.expect("fault must inject within 3 s") {
                InjectionOutcome::NonManifested => counts[0] += 1,
                InjectionOutcome::Sdc => counts[1] += 1,
                InjectionOutcome::Detected => counts[2] += 1,
            }
        }
        let nm = counts[0] as f64 / n as f64;
        let det = counts[2] as f64 / n as f64;
        assert!((nm - 0.748).abs() < 0.06, "non-manifested {nm}");
        assert!((det - 0.196).abs() < 0.06, "detected {det}");
    }

    #[test]
    fn hang_cases_are_detected_by_watchdog() {
        let mut saw_hang = false;
        for seed in 0..120 {
            let (outcome, hv) = run_one(FaultType::Code, seed);
            if outcome == Some(InjectionOutcome::Detected) {
                if let Some(det) = hv.detection() {
                    if det.kind == nlh_hv::detect::DetectionKind::Hang {
                        saw_hang = true;
                        break;
                    }
                }
            }
        }
        assert!(saw_hang, "some Code faults must manifest as hangs");
    }

    #[test]
    fn trigger_is_deterministic_per_seed() {
        let a = Injector::new(FaultType::Register, 5, window(), 2_000);
        let b = Injector::new(FaultType::Register, 5, window(), 2_000);
        assert_eq!(a.fire_at(), b.fire_at());
        assert_eq!(a.ops_budget, b.ops_budget);
    }

    #[test]
    fn no_injection_before_window() {
        let mut hv = Hypervisor::new(MachineConfig::small(), 1);
        let mut inj = Injector::new(FaultType::Failstop, 1, window(), 100);
        while hv.now() < SimTime::from_millis(19) {
            let (cpu, out) = hv.step_any();
            assert!(!inj.on_step(&mut hv, cpu, out));
        }
        assert!(inj.outcome().is_none());
    }

    #[test]
    fn steered_injection_lands_in_matching_handler() {
        let mut hv = Hypervisor::new(MachineConfig::small(), 9);
        let mut inj = Injector::new(FaultType::Failstop, 9, window(), 50)
            .steer_to_handler(HandlerKind::TimerInterrupt);
        let deadline = SimTime::from_secs(3);
        while hv.detection().is_none() && hv.now() < deadline {
            let (cpu, out) = hv.step_any();
            inj.on_step(&mut hv, cpu, out);
        }
        let point = inj.injection_point().expect("steered fault must land");
        assert_eq!(point.handler, HandlerKind::TimerInterrupt);
        // Steering consumes no randomness: the trigger draws match an
        // unsteered twin.
        let twin = Injector::new(FaultType::Failstop, 9, window(), 50);
        assert_eq!(inj.fire_at(), twin.fire_at());
        assert_eq!(inj.ops_budget(), twin.ops_budget());
    }

    /// A trial group runs to the arming step once and feeds that step to
    /// each sibling's injector later ([`Injector::run_to_arm`]). That must
    /// equal the injector running through the step itself, including when
    /// the arming step injects at once: a budget of 0 and a fire time at
    /// the end of a mid-program micro-op.
    #[test]
    fn arming_step_fed_later_equals_running_through_it() {
        let deadline = SimTime::from_millis(200);
        let mut injected_on_arm = 0;
        for seed in 0..3u64 {
            let mut probe = Hypervisor::new(MachineConfig::small(), seed);
            let mut fire_times = Vec::new();
            while fire_times.len() < 30 && probe.now() < deadline {
                let (cpu, out) = probe.step_any();
                let at = probe.cpu_now(cpu);
                if out == StepOutcome::HvOp
                    && probe.cpu_mid_program(cpu)
                    && at > SimTime::from_millis(20)
                {
                    fire_times.push(at);
                }
            }
            for at in fire_times {
                let window = (at, SimTime::from_nanos(at.as_nanos() + 1));
                let make = || Injector::with_ops_range(FaultType::Code, seed, window, (0, 1));
                let mut through_hv = Hypervisor::new(MachineConfig::small(), seed);
                let mut through = make();
                through.run_until(&mut through_hv, deadline);

                let mut fed_hv = Hypervisor::new(MachineConfig::small(), seed);
                let mut fed = make();
                let (cpu, out) = make()
                    .run_to_arm(&mut fed_hv, deadline)
                    .expect("the run reaches the fire time");
                if fed.on_step(&mut fed_hv, cpu, out) {
                    injected_on_arm += 1;
                } else {
                    fed.run_until(&mut fed_hv, deadline);
                }

                assert_eq!(fed.armed_at(), through.armed_at(), "seed {seed} at {at:?}");
                assert_eq!(fed.injection_point(), through.injection_point());
                assert_eq!(fed.outcome(), through.outcome());
                assert_eq!(fed_hv.steps_executed(), through_hv.steps_executed());
                assert_eq!(fed_hv.state_digest(), through_hv.state_digest());
            }
        }
        assert!(injected_on_arm > 0, "some arming step injects at once");
    }

    #[test]
    fn batched_run_injects_where_per_step_feeding_does() {
        let deadline = SimTime::from_secs(1);
        for seed in 0..6u64 {
            let make = || {
                let inj = Injector::new(FaultType::Code, seed, window(), 200);
                if seed % 2 == 1 {
                    inj.steer_to_handler(HandlerKind::TimerInterrupt)
                        .with_steer_depth(seed)
                } else {
                    inj
                }
            };
            let mut fast_hv = Hypervisor::new(MachineConfig::small(), seed);
            let mut fast = make();
            let fast_fired = fast.run_until(&mut fast_hv, deadline);

            let mut ref_hv = Hypervisor::new(MachineConfig::small(), seed);
            let mut reference = make();
            let mut ref_fired = false;
            while !ref_fired && ref_hv.detection().is_none() && ref_hv.now() < deadline {
                let (cpu, out) = ref_hv.step_any();
                ref_fired = reference.on_step(&mut ref_hv, cpu, out);
            }

            assert!(
                fast_fired,
                "seed {seed}: the fault lands before the deadline"
            );
            assert_eq!(fast_fired, ref_fired, "seed {seed}");
            assert_eq!(fast.armed_at(), reference.armed_at(), "seed {seed}");
            assert_eq!(fast.injection_point(), reference.injection_point());
            assert_eq!(fast.outcome(), reference.outcome(), "seed {seed}");
            assert_eq!(fast_hv.steps_executed(), ref_hv.steps_executed());
            assert_eq!(fast_hv.state_digest(), ref_hv.state_digest());
        }
    }

    #[test]
    #[should_panic(expected = "empty trigger window")]
    fn empty_window_rejected() {
        Injector::new(FaultType::Failstop, 1, (SimTime::ZERO, SimTime::ZERO), 10);
    }

    #[test]
    fn model_probabilities_sum_to_one() {
        for f in FaultType::ALL {
            let m = ManifestModel::for_fault(f);
            let s = m.p_nonmanifested + m.p_sdc + m.p_detected;
            assert!((s - 1.0).abs() < 1e-9, "{f}: {s}");
            let p: f64 = m.propagation.iter().sum();
            assert!((p - 1.0).abs() < 1e-9, "{f} propagation: {p}");
        }
        let w: f64 = corruption_weights().iter().map(|(_, w)| w).sum();
        assert!((w - 1.0).abs() < 1e-9, "corruption weights: {w}");
    }

    #[test]
    fn detection_leaves_abandonment_residue_sometimes() {
        // Over many failstop trials, at least one detection must land while
        // a lock is held or interrupt nesting is nonzero — the residue the
        // recovery enhancements exist for.
        let mut saw_residue = false;
        for seed in 0..60 {
            let (_, hv) = run_one(FaultType::Failstop, seed + 1000);
            if hv.detection().is_some() {
                let held = !hv.locks.held_locks().is_empty();
                let irq = hv.percpu.iter().any(|p| p.local_irq_count > 0);
                if held || irq {
                    saw_residue = true;
                    break;
                }
            }
        }
        assert!(saw_residue);
    }
}
