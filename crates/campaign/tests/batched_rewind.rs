//! Targeted differential tests for the batched loop's collapsed tiers:
//! bulk lock spins, per-CPU check horizons, and idle CPUs that jump to
//! their own next event and are rewound when something wakes them.
//!
//! Each scenario is built so that one shape happens many times — a spin
//! cut by each of its clips, a jumped CPU woken by a vCPU enqueue, a
//! device interrupt raise or a route rewrite, wakes that land exactly on a
//! quantum boundary of the woken CPU with its index below and above the
//! waker's, a detection or an injector stop while CPUs are jumped — and
//! then run twice: through `run_batched` (the injector as stop rule) and
//! through the one-checked-step-at-a-time reference. Both runs must take
//! the same number of steps, reach the same state digest and inject at
//! the same point. The tier counters of the batched run show that the
//! shape under test really occurred.

use nlh_campaign::{build_system, SetupKind};
use nlh_hv::domain::{DomainKind, DomainSpec, GuestNotice, GuestOp, GuestProgram, WorkloadVerdict};
use nlh_hv::hypercalls::HcRequest;
use nlh_hv::interrupts::{GuestEventKind, VEC_NET};
use nlh_hv::locks::StaticLock;
use nlh_hv::{CpuId, DomId, HvTuning, Hypervisor, MachineConfig, TierCounters};
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
    (*fast.tier_counters(), end(&fast, &fast_inj))
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

/// Computes a random whole number of microseconds, then issues `call` with
/// the next of `targets`: each call's micro-ops start on the grid.
#[derive(Debug, Clone)]
struct Poker {
    targets: Vec<u32>,
    next: usize,
    computed: bool,
    call: fn(u32) -> HcRequest,
}

impl GuestProgram for Poker {
    fn name(&self) -> &str {
        "Poker"
    }
    fn next_op(&mut self, _now: SimTime, rng: &mut Pcg64) -> GuestOp {
        if !self.computed {
            self.computed = true;
            return GuestOp::Compute(SimDuration::from_micros(rng.gen_range_u64(1, 40)));
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
    hv.add_boot_domain(spec(
        3,
        Box::new(Poker {
            targets: vec![0, 1],
            next: 0,
            computed: false,
            call: event_send,
        }),
    ));
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
        hv.add_boot_domain(spec(
            3,
            Box::new(Poker {
                targets: vec![1, 5],
                next: 0,
                computed: false,
                call: route_net,
            }),
        ));
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
/// fixed seed sweep and all three fault types, batched against the
/// reference (the same comparison as `differential.rs`, on the two
/// setups where jumped CPUs are woken most). CI runs it in release mode
/// (`--ignored`); it takes minutes in a debug build.
#[test]
#[ignore]
fn trial_seed_sweep_matches_reference() {
    use nlh_campaign::{run_trial_with, TrialConfig, TrialRunOptions};
    use nlh_core::Microreset;
    let mech = Microreset::nilihype();
    for setup in [SetupKind::ThreeAppVm, SetupKind::TwoAppVmVswitch] {
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
                let (result, record, hv) = run_trial_with(hv, &layout, &cfg, &mech, opts);
                (
                    result,
                    record,
                    hv.state_digest(),
                    hv.tier_counters().rewinds,
                )
            };
            let (fast, fast_record, fast_digest, r) = run(true);
            let (slow, slow_record, slow_digest, _) = run(false);
            assert_eq!(fast, slow, "{setup:?} seed {seed}");
            assert_eq!(fast_record, slow_record, "{setup:?} seed {seed}");
            assert_eq!(fast_digest, slow_digest, "{setup:?} seed {seed}");
            rewinds += r;
        }
        assert!(rewinds > 0, "{setup:?}: no rewinds in the sweep");
    }
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
