//! Targeted differential tests for the batched loop's collapsed tiers:
//! bulk lock spins, per-CPU check horizons, idle CPUs that jump to their
//! own next event and are rewound when something wakes them, fused spans
//! handed off between mid-program CPUs, and `Compute` runs that jump past
//! the pick bound and are rewound when the run ends early.
//!
//! Each scenario is built so that one shape happens many times — a spin
//! cut by each of its clips, a jumped CPU woken by a vCPU enqueue, a
//! device interrupt raise or a route rewrite, wakes that land exactly on a
//! quantum boundary of the woken CPU with its index below and above the
//! waker's, a detection or an injector stop while CPUs are jumped, two
//! CPUs running handler programs in lockstep, a `Compute` jump taken back
//! by a detection, a route rewrite or a stop rule — and then run twice:
//! through `run_batched` (the injector as stop rule) and through the
//! one-checked-step-at-a-time reference. Both runs must take the same
//! number of steps, reach the same state digest and inject at the same
//! point. The tier counters of the batched run show that the shape under
//! test really occurred.

use nlh_campaign::{build_system, SetupKind};
use nlh_hv::domain::{DomainKind, DomainSpec, GuestNotice, GuestOp, GuestProgram, WorkloadVerdict};
use nlh_hv::hypercalls::HcRequest;
use nlh_hv::interrupts::{GuestEventKind, VEC_NET};
use nlh_hv::locks::StaticLock;
use nlh_hv::{
    CpuId, DomId, HvTuning, Hypervisor, MachineConfig, StepOutcome, StopRule, TierCounters,
};
use nlh_inject::{FaultType, InjectionPoint, Injector};
use nlh_sim::{Pcg64, SimDuration, SimTime};

/// What one run ends with.
#[derive(Debug, PartialEq)]
struct End {
    steps: u64,
    digest: u64,
    point: Option<InjectionPoint>,
    detected: bool,
}

fn end(hv: &Hypervisor, inj: &Option<Injector>) -> End {
    End {
        steps: hv.steps_executed(),
        digest: hv.state_digest(),
        point: inj.as_ref().and_then(|i| i.injection_point().copied()),
        detected: hv.detection().is_some(),
    }
}

/// Runs a copy of `hv` to each of `chunks` batched and another one step
/// at a time (calling `between` on both copies before each chunk), and
/// asserts both end each chunk identically. Returns the batched run's
/// tier counters and how it ended.
fn differential(
    hv: Hypervisor,
    inj: Option<Injector>,
    chunks: &[SimTime],
    between: impl Fn(&mut Hypervisor),
) -> (TierCounters, End) {
    let (fast, _, end) = run_both(hv, inj, chunks, between);
    (*fast.tier_counters(), end)
}

/// [`differential`], returning the batched machine, the reference machine
/// and how the batched run ended.
fn run_both(
    hv: Hypervisor,
    inj: Option<Injector>,
    chunks: &[SimTime],
    between: impl Fn(&mut Hypervisor),
) -> (Hypervisor, Hypervisor, End) {
    let (mut fast, mut fast_inj) = (hv.clone(), inj.clone());
    let (mut slow, mut slow_inj) = (hv, inj);
    for &deadline in chunks {
        between(&mut fast);
        between(&mut slow);
        while fast.detection().is_none() && fast.now() < deadline {
            match fast_inj.as_mut() {
                Some(i) => {
                    i.run_until(&mut fast, deadline);
                }
                None => fast.run_until(deadline),
            }
        }
        while slow.detection().is_none() && slow.now() < deadline {
            let (cpu, out) = slow.step_any();
            if let Some(i) = slow_inj.as_mut() {
                i.on_step(&mut slow, cpu, out);
            }
        }
        assert_eq!(
            end(&fast, &fast_inj),
            end(&slow, &slow_inj),
            "at {deadline:?}"
        );
    }
    let end = end(&fast, &fast_inj);
    (fast, slow, end)
}

/// A machine whose idle quantum equals one micro-op, so every clock sits
/// on one microsecond grid and a waking op often starts exactly on a
/// quantum boundary of the CPU it wakes.
fn grid_machine(seed: u64) -> Hypervisor {
    let tuning = HvTuning {
        idle_quantum: SimDuration::from_micros(1),
        ..HvTuning::calibrated()
    };
    Hypervisor::with_tuning(MachineConfig::small(), tuning, seed)
}

fn spec(cpu: u32, program: Box<dyn GuestProgram>) -> DomainSpec {
    DomainSpec {
        kind: DomainKind::App,
        pages: 16,
        pinned_cpu: CpuId(cpu),
        program,
    }
}

/// Blocks until an event arrives, then computes briefly and blocks again:
/// between wakes its CPU has no current vCPU and jumps.
#[derive(Debug, Clone)]
struct Sleeper {
    woken: u32,
}

impl GuestProgram for Sleeper {
    fn name(&self) -> &str {
        "Sleeper"
    }
    fn next_op(&mut self, _now: SimTime, _rng: &mut Pcg64) -> GuestOp {
        if self.woken > 0 {
            self.woken = 0;
            GuestOp::Compute(SimDuration::from_micros(3))
        } else {
            GuestOp::Block
        }
    }
    fn notice(&mut self, _now: SimTime, n: GuestNotice) {
        if let GuestNotice::Event(_) = n {
            self.woken += 1;
        }
    }
    fn verdict(&self, _now: SimTime, _deadline: SimTime) -> WorkloadVerdict {
        WorkloadVerdict::Running
    }
    fn clone_box(&self) -> Box<dyn GuestProgram> {
        Box::new(self.clone())
    }
}

/// Computes a random whole number of microseconds in `micros`, then
/// issues `call` with the next of `targets`: each call's micro-ops start
/// on the grid.
#[derive(Debug, Clone)]
struct Poker {
    targets: Vec<u32>,
    next: usize,
    computed: bool,
    micros: (u64, u64),
    call: fn(u32) -> HcRequest,
}

fn poker(targets: &[u32], micros: (u64, u64), call: fn(u32) -> HcRequest) -> Box<Poker> {
    Box::new(Poker {
        targets: targets.to_vec(),
        next: 0,
        computed: false,
        micros,
        call,
    })
}

impl GuestProgram for Poker {
    fn name(&self) -> &str {
        "Poker"
    }
    fn next_op(&mut self, _now: SimTime, rng: &mut Pcg64) -> GuestOp {
        if !self.computed {
            self.computed = true;
            let (lo, hi) = self.micros;
            return GuestOp::Compute(SimDuration::from_micros(rng.gen_range_u64(lo, hi)));
        }
        self.computed = false;
        let t = self.targets[self.next % self.targets.len()];
        self.next += 1;
        GuestOp::Hypercall((self.call)(t))
    }
    fn notice(&mut self, _now: SimTime, _n: GuestNotice) {}
    fn verdict(&self, _now: SimTime, _deadline: SimTime) -> WorkloadVerdict {
        WorkloadVerdict::Running
    }
    fn clone_box(&self) -> Box<dyn GuestProgram> {
        Box::new(self.clone())
    }
}

fn event_send(to: u32) -> HcRequest {
    HcRequest::EventSend {
        to: DomId(to),
        event: GuestEventKind::NetRx { seq: 0 },
    }
}

fn route_net(to: u32) -> HcRequest {
    HcRequest::PhysdevRoute(VEC_NET, CpuId(to))
}

/// Sleepers on CPUs 1 and 5 (domains 0 and 1), woken by a poker on CPU 3
/// sending events: each wake is a vCPU enqueue on a jumped CPU, by a
/// waker whose index lies between the two woken CPUs'.
fn ping_machine(seed: u64) -> Hypervisor {
    let mut hv = grid_machine(seed);
    hv.add_boot_domain(spec(1, Box::new(Sleeper { woken: 0 })));
    hv.add_boot_domain(spec(5, Box::new(Sleeper { woken: 0 })));
    hv.add_boot_domain(spec(3, poker(&[0, 1], (1, 40), event_send)));
    hv
}

fn chunks(from: SimTime, step: SimDuration, n: usize) -> Vec<SimTime> {
    (1..=n).map(|k| from + step * k as u64).collect()
}

#[test]
fn enqueue_wakes_on_quantum_boundaries_match_reference() {
    let mut rewinds = 0;
    for seed in 0..4 {
        let hv = ping_machine(seed);
        let (c, _) = differential(
            hv,
            None,
            &chunks(SimTime::ZERO, SimDuration::from_millis(3), 4),
            |_| {},
        );
        assert!(c.jumps > 0, "seed {seed}: {c:?}");
        rewinds += c.rewinds;
    }
    assert!(rewinds > 100, "wakes must rewind jumped CPUs: {rewinds}");
}

#[test]
fn injector_stop_while_cpus_are_jumped_matches_reference() {
    for seed in 0..6 {
        let hv = ping_machine(seed);
        // A window inside the run and a short counting budget: the
        // injector arms at its marker and stops within a few hundred ops.
        let inj = Injector::with_ops_range(
            FaultType::Register,
            seed,
            (SimTime::from_millis(2), SimTime::from_millis(8)),
            (0, 400),
        );
        let (c, end) = differential(hv, Some(inj), &[SimTime::from_millis(12)], |_| {});
        assert!(c.jumps > 0, "seed {seed}: {c:?}");
        assert!(
            end.point.is_some(),
            "seed {seed}: the injector must stop the run"
        );
    }
}

#[test]
fn route_rewrite_wakes_match_reference() {
    let mut rewinds = 0;
    for seed in 0..3 {
        let mut hv = grid_machine(seed);
        // The poker on CPU 3 routes the net vector to CPU 1 or CPU 5,
        // where a stale pending bit turns into a device interrupt.
        hv.add_boot_domain(spec(3, poker(&[1, 5], (1, 40), route_net)));
        hv.irqs.ioapic_write(VEC_NET, Some(CpuId(0)));
        let (c, _) = differential(
            hv,
            None,
            &chunks(SimTime::ZERO, SimDuration::from_micros(700), 8),
            |hv| {
                hv.irqs.raise(CpuId(1), VEC_NET);
                hv.irqs.raise(CpuId(5), VEC_NET);
            },
        );
        rewinds += c.rewinds;
    }
    assert!(rewinds > 0, "route rewrites must rewind jumped CPUs");
}

/// Short runs of a real setup from boot (after `prepare`), half of them
/// under a fail-stop injector. In `TwoAppVmVswitch` the vswitch forwards
/// each frame to the peer port, raising the net vector on its routed CPU,
/// whose interrupt handler enqueues the receiving vCPU on its own,
/// jumped CPU.
fn setup_sweep(
    setup: SetupKind,
    seeds: std::ops::Range<u64>,
    prepare: impl Fn(&mut Hypervisor),
) -> TierCounters {
    let mut sum = TierCounters::default();
    for seed in seeds {
        let (mut hv, _) = build_system(MachineConfig::small(), setup, seed);
        prepare(&mut hv);
        let from = hv.now();
        let inj = (seed % 2 == 1).then(|| {
            Injector::with_ops_range(
                FaultType::Failstop,
                seed,
                (
                    from + SimDuration::from_millis(5),
                    from + SimDuration::from_millis(25),
                ),
                (0, 2000),
            )
        });
        let (c, _) = differential(
            hv,
            inj,
            &chunks(from, SimDuration::from_millis(10), 3),
            |_| {},
        );
        sum.jumps += c.jumps;
        sum.rewinds += c.rewinds;
    }
    sum
}

#[test]
fn vswitch_irq_wakes_match_reference() {
    let c = setup_sweep(SetupKind::TwoAppVmVswitch, 0..2, |_| {});
    assert!(c.rewinds > 0, "{c:?}");
}

/// The vswitch with its net vector routed to CPU 6, which has no vCPU:
/// every completion interrupt the vswitch raises lands on a CPU the loop
/// has jumped ahead, and the raise is the only wake input it changes.
#[test]
fn device_irq_raise_wakes_match_reference() {
    let c = setup_sweep(SetupKind::TwoAppVmVswitch, 0..2, |hv| {
        hv.irqs.ioapic_write(VEC_NET, Some(CpuId(6)));
    });
    assert!(c.rewinds > 0, "{c:?}");
}

#[test]
fn three_appvm_runs_match_reference() {
    let c = setup_sweep(SetupKind::ThreeAppVm, 0..2, |_| {});
    assert!(c.jumps > 0, "{c:?}");
}

/// Whole trials — injection, recovery and the post-recovery run — over a
/// fixed seed sweep, all three fault types and both Figure 2 mechanisms
/// (microreset and microreboot), batched against the reference (the same
/// comparison as `differential.rs`, on the two setups where jumped CPUs
/// are woken most). CI runs it in release mode (`--ignored`); it takes
/// minutes in a debug build.
#[test]
#[ignore]
fn trial_seed_sweep_matches_reference() {
    use nlh_campaign::{run_trial_with, TrialConfig, TrialRunOptions};
    use nlh_core::{Microreboot, Microreset, RecoveryMechanism};
    let mechs: [Box<dyn RecoveryMechanism>; 2] = [
        Box::new(Microreset::nilihype()),
        Box::new(Microreboot::rehype()),
    ];
    let mut sum = TierCounters::default();
    for setup in [SetupKind::ThreeAppVm, SetupKind::TwoAppVmVswitch] {
        for mech in &mechs {
            let mut rewinds = 0;
            for seed in 0..12u64 {
                let fault =
                    [FaultType::Failstop, FaultType::Register, FaultType::Code][seed as usize % 3];
                let cfg = TrialConfig::new(setup, fault, seed);
                let run = |batched| {
                    let (hv, layout) = build_system(cfg.machine.clone(), cfg.setup, cfg.seed);
                    let opts = TrialRunOptions {
                        batched,
                        ..TrialRunOptions::default()
                    };
                    let (result, record, hv) =
                        run_trial_with(hv, &layout, &cfg, mech.as_ref(), opts);
                    (result, record, hv.state_digest(), *hv.tier_counters())
                };
                let (fast, fast_record, fast_digest, c) = run(true);
                let (slow, slow_record, slow_digest, _) = run(false);
                let at = format!("{setup:?} {} seed {seed}", mech.name());
                assert_eq!(fast, slow, "{at}");
                assert_eq!(fast_record, slow_record, "{at}");
                assert_eq!(fast_digest, slow_digest, "{at}");
                rewinds += c.rewinds;
                sum.handoffs += c.handoffs;
                sum.compute_jumps += c.compute_jumps;
            }
            assert!(
                rewinds > 0,
                "{setup:?} {}: no rewinds in the sweep",
                mech.name()
            );
        }
    }
    assert!(
        sum.handoffs > 0 && sum.compute_jumps > 0,
        "the sweep must hand off and jump: {sum:?}"
    );
}

/// Computes, then writes to the console: with the console lock held by a
/// CPU that never releases it, the write spins until the watchdog fires.
#[derive(Debug, Clone)]
struct Writer {
    computed: bool,
}

impl GuestProgram for Writer {
    fn name(&self) -> &str {
        "Writer"
    }
    fn next_op(&mut self, _now: SimTime, rng: &mut Pcg64) -> GuestOp {
        if !self.computed {
            self.computed = true;
            return GuestOp::Compute(SimDuration::from_micros(rng.gen_range_u64(100, 3000)));
        }
        self.computed = false;
        GuestOp::Hypercall(HcRequest::ConsoleWrite)
    }
    fn notice(&mut self, _now: SimTime, _n: GuestNotice) {}
    fn verdict(&self, _now: SimTime, _deadline: SimTime) -> WorkloadVerdict {
        WorkloadVerdict::Running
    }
    fn clone_box(&self) -> Box<dyn GuestProgram> {
        Box::new(self.clone())
    }
}

/// A writer on CPU 2 spinning on a lock CPU 7 holds forever, beside the
/// ping machine's sleepers and poker: the spin is cut by the poker's and
/// the sleepers' clocks (next-CPU bound and tie), by its own watchdog
/// checks (horizon) and, under an injector, by the marker and the span
/// budget; it ends in a hang detection while idle CPUs are jumped.
fn spin_machine(seed: u64) -> Hypervisor {
    let mut hv = ping_machine(seed);
    hv.add_boot_domain(spec(2, Box::new(Writer { computed: false })));
    hv.locks.acquire(StaticLock::Console.id(), CpuId(7));
    hv
}

#[test]
fn spins_cut_by_each_clip_and_hang_detection_match_reference() {
    // Plain run: bound, tie and horizon clips, then the hang.
    let (c, end) = differential(spin_machine(0), None, &[SimTime::from_millis(500)], |_| {});
    assert!(c.spin_spans > 0 && c.checked_steps > 0, "{c:?}");
    assert!(end.detected, "the stuck writer must trip the watchdog");
    for seed in 0..4 {
        // Marker: the injector's first-level timer lands mid-spin.
        let marker = Injector::with_ops_range(
            FaultType::Register,
            seed,
            (SimTime::from_millis(20), SimTime::from_millis(200)),
            (1_000_000, 1_000_001),
        );
        // Span budget: a counting window of a few hundred ops, mostly
        // spin steps once the writer is stuck.
        let budget = Injector::with_ops_range(
            FaultType::Failstop,
            seed,
            (SimTime::from_millis(20), SimTime::from_millis(200)),
            (0, 300),
        );
        for inj in [marker, budget] {
            let (c, end) = differential(
                spin_machine(seed),
                Some(inj),
                &[SimTime::from_millis(500)],
                |_| {},
            );
            assert!(c.spin_spans > 0 && end.detected, "seed {seed}: {c:?}");
        }
    }
}

/// Twin pokers on CPUs 1 and 2 that compute the same fixed time between
/// event sends to their own domains: from boot on, both CPUs run each
/// handler program op for op at the same instants.
fn lockstep_machine(seed: u64) -> Hypervisor {
    let mut hv = grid_machine(seed);
    hv.add_boot_domain(spec(1, poker(&[0], (5, 6), event_send)));
    hv.add_boot_domain(spec(2, poker(&[1], (5, 6), event_send)));
    hv
}

#[test]
fn lockstep_programs_hand_off_and_match_reference() {
    for seed in 0..3 {
        let (c, _) = differential(
            lockstep_machine(seed),
            None,
            &chunks(SimTime::ZERO, SimDuration::from_millis(3), 4),
            |_| {},
        );
        assert!(
            c.handoffs > 1000 && c.compute_jumps > 0,
            "seed {seed}: {c:?}"
        );
        // Under a counting window the spans still hand off, within the
        // injector's op budget, and the injector stops on the same op.
        let inj = Injector::with_ops_range(
            FaultType::Register,
            seed,
            (SimTime::from_millis(1), SimTime::from_millis(4)),
            (0, 400),
        );
        let (c, end) = differential(
            lockstep_machine(seed),
            Some(inj),
            &[SimTime::from_millis(8)],
            |_| {},
        );
        assert!(c.handoffs > 0, "seed {seed}: {c:?}");
        assert!(
            end.point.is_some(),
            "seed {seed}: the injector must stop the run"
        );
    }
}

/// The injector reads the global op order while it waits for its marker
/// and while it counts, so neither window may run a `Compute` op ahead of
/// the other CPUs.
#[test]
fn waiting_and_counting_injectors_take_no_compute_jumps() {
    for seed in 0..2 {
        // Waiting: the marker lies past the run.
        let waiting = Injector::with_ops_range(
            FaultType::Failstop,
            seed,
            (SimTime::from_millis(20), SimTime::from_millis(30)),
            (0, 10),
        );
        // Counting: armed on the first step, with a budget that never
        // drains.
        let counting = Injector::with_ops_range(
            FaultType::Failstop,
            seed,
            (SimTime::ZERO, SimTime::from_nanos(1)),
            (u64::MAX - 1, u64::MAX),
        );
        for inj in [waiting, counting] {
            let (c, end) = differential(
                lockstep_machine(seed),
                Some(inj),
                &[SimTime::from_millis(10)],
                |_| {},
            );
            assert!(c.handoffs > 0 && c.compute_jumps == 0, "seed {seed}: {c:?}");
            assert!(end.point.is_none(), "seed {seed}");
        }
    }
}

/// A poker on `cpu` between event sends, and on CPU 3 a writer stuck on
/// the console lock CPU 7 holds: the poker's `Compute` runs jump past the
/// spinning writer until the writer's watchdog raises a hang (at about
/// 300 ms, between two scheduler ticks, so no other CPU runs a program
/// then).
fn hang_machine(seed: u64, cpu: u32) -> Hypervisor {
    let mut hv = grid_machine(seed);
    hv.add_boot_domain(spec(cpu, poker(&[0], (1, 40), event_send)));
    hv.add_boot_domain(spec(3, Box::new(Writer { computed: false })));
    hv.locks.acquire(StaticLock::Console.id(), CpuId(7));
    hv
}

#[test]
fn compute_jumps_rewound_by_a_detection_match_reference() {
    let op = SimDuration::from_micros(1);
    for (cpu, kept) in [(1, op), (5, SimDuration::ZERO)] {
        let mut boundaries = 0;
        for seed in 0..24 {
            let (fast, slow, end) = run_both(
                hang_machine(seed, cpu),
                None,
                &[SimTime::from_millis(400)],
                |_| {},
            );
            assert!(
                end.detected,
                "seed {seed}: the stuck writer trips the watchdog"
            );
            let det = slow.detection().expect("detected");
            assert_eq!(det.cpu, CpuId(3), "seed {seed}");
            // Every clock sits on the 1-µs grid, so the detecting step
            // starts on an op boundary of the jumped poker. The reference
            // ran the poker's op that starts at that instant when the
            // poker's index is below the detector's (the pick's
            // first-index tie), and not when it is above.
            if fast.tier_counters().compute_rewinds > 0
                && slow.cpu_mid_program(CpuId(cpu))
                && slow.cpu_now(CpuId(cpu)) == det.at + kept
            {
                boundaries += 1;
            }
        }
        assert!(boundaries > 0, "poker on CPU {cpu}: no detection mid-jump");
    }
}

/// Pokers on CPUs 1 and 5 between event sends, a poker on CPU 3 routing
/// the net vector to CPU 1 or 5, and an external packet every 20 µs: a
/// route write moves the next packet time onto a CPU whose `Compute` run
/// may already have jumped past it.
#[test]
fn compute_jumps_cut_by_a_route_rewrite_match_reference() {
    let mut rewinds = 0;
    for seed in 0..3 {
        let mut hv = grid_machine(seed);
        hv.add_boot_domain(spec(1, poker(&[0], (1, 40), event_send)));
        hv.add_boot_domain(spec(5, poker(&[1], (1, 40), event_send)));
        hv.add_boot_domain(spec(3, poker(&[1, 5], (1, 40), route_net)));
        hv.attach_net_traffic(DomId(2), SimDuration::from_micros(20));
        let (c, end) = differential(
            hv,
            None,
            &chunks(SimTime::ZERO, SimDuration::from_millis(2), 4),
            |_| {},
        );
        assert!(!end.detected, "seed {seed}");
        assert!(c.compute_jumps > 0, "seed {seed}: {c:?}");
        rewinds += c.compute_rewinds;
    }
    assert!(rewinds > 0, "route rewrites must cut compute jumps");
}

/// Stops the run on the first guest step of `cpu` whose clock reaches
/// `at`: a rule with no marker and no budget, so `Compute` runs jump under
/// it, and the stop takes back the jumped ops the reference has not run.
#[derive(Clone)]
struct GuestStepAt {
    cpu: CpuId,
    at: SimTime,
}

impl StopRule for GuestStepAt {
    fn after_step(&mut self, hv: &Hypervisor, cpu: CpuId, out: StepOutcome) -> bool {
        cpu == self.cpu && out == StepOutcome::Guest && hv.cpu_now(cpu) >= self.at
    }
}

#[test]
fn compute_jumps_rewound_by_a_stop_match_reference() {
    let mut rewinds = 0;
    for seed in 0..4 {
        for k in 1..=8u64 {
            // The lockstep twins jump; the poker on CPU 3 takes the guest
            // steps the rule stops on.
            let mut hv = lockstep_machine(seed);
            hv.add_boot_domain(spec(3, poker(&[2], (1, 40), event_send)));
            let rule = GuestStepAt {
                cpu: CpuId(3),
                at: SimTime::from_micros(k * 937),
            };
            let (mut fast, mut slow) = (hv.clone(), hv);
            let mut fast_rule = rule.clone();
            let stopped = fast.run_batched(SimTime::from_millis(20), &mut fast_rule);
            assert_eq!(stopped, Some(CpuId(3)), "seed {seed} k {k}");
            let mut slow_rule = rule;
            loop {
                let (cpu, out) = slow.step_any();
                if slow_rule.after_step(&slow, cpu, out) {
                    break;
                }
            }
            assert_eq!(end(&fast, &None), end(&slow, &None), "seed {seed} k {k}");
            rewinds += fast.tier_counters().compute_rewinds;
        }
    }
    assert!(rewinds > 0, "stops must take back compute jumps");
}
