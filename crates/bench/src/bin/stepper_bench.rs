//! Stepper benchmark: steps/sec, allocs/step and the batched loop's tier
//! counters over busy-phase windows of the warm-trial workloads, written
//! as `BENCH_stepper.json`.
//!
//! CI runs this on every push so the stepping-hot-path trajectory is
//! tracked PR by PR (see `ARCHITECTURE.md`, "How to profile a trial").
//! Each section is one simulated-time window inside its workload's busy
//! phase (the 1AppVM, vswitch and overcommit benchmarks run for 10
//! simulated seconds, the 3AppVM ones for 24, then the machine idles):
//! from 200 ms to 9.2 s after boot, or, for `three_appvm`, from the end of
//! a recovery to 12 s. The window is stepped `--reps` times, each from a
//! fresh copy of the same warmed machine, and timed over all of them; the
//! step count, the determinism counters and the tier counters are those
//! of one window, identical across repetitions. The sections:
//!
//! * `per_step` — the 1AppVM/UnixBench window through the injector's
//!   counting path (the batched loop with the injector as its stop rule,
//!   every hypervisor micro-op passing the counting automaton);
//! * `batched` — the same window through the plain batched loop;
//! * `virtio` — the 2AppVM vswitch window (descriptor-ring handlers and
//!   guest-to-guest frame forwarding);
//! * `overcommit` — the 4:1 credit-scheduler window (preemption
//!   switches, WFI block/wake, load-balancing migrations);
//! * `three_appvm` — the 3AppVM post-recovery window (Figure 2's
//!   dominant phase): right after NiLiHype recovers a fixed-seed
//!   fail-stop trial, through the third AppVM's creation at 9 s, with
//!   four CPUs stepping their handler programs in lockstep.
//!
//! Usage: `stepper_bench [--reps R] [--out PATH]`

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use nlh_campaign::{build_system, BenchKind, MechanismSpec, SetupKind};
use nlh_hv::{Hypervisor, MachineConfig, TierCounters};
use nlh_inject::{FaultType, Injector};
use nlh_sim::{SimDuration, SimTime};

/// A pass-through allocator that counts allocations, so the benchmark can
/// report allocs/step alongside steps/sec.
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: delegates directly to the system allocator; the counter is a
// relaxed atomic with no effect on allocation behaviour.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static A: CountingAlloc = CountingAlloc;

/// Where every window starts: past the boot transient.
const WARMUP: SimDuration = SimDuration::from_millis(200);

/// Simulated time each window covers, from the warm-up on.
const WINDOW: SimDuration = SimDuration::from_millis(9_000);

/// The seed of the 3AppVM window's fail-stop trial: one that NiLiHype
/// recovers, with no second detection before the window ends.
const TRIAL_SEED: u64 = 77;

/// The 3AppVM window's end: past the third AppVM's creation at 9 s.
const THREE_APPVM_END: SimTime = SimTime::from_secs(12);

/// Simulated time one batched-loop call covers.
const CALL: SimDuration = SimDuration::from_millis(50);

/// One section's window, measured.
struct Section {
    steps: u64,
    secs: f64,
    allocs: u64,
    tier: TierCounters,
    /// The machine at the end of the window.
    end: Hypervisor,
}

/// Steps `reps` fresh copies of `warm` from its clock to `deadline`,
/// each through a fresh `runner()`, timing only the stepping. Each copy
/// starts with the clone's cold buffer pools, as a trial does, so
/// allocs/step includes refilling them.
fn measure<R: FnMut(&mut Hypervisor, SimTime)>(
    warm: &Hypervisor,
    deadline: SimTime,
    reps: u32,
    runner: impl Fn() -> R,
) -> Section {
    let mut secs = 0.0;
    let mut allocs = 0;
    let mut last = None;
    for _ in 0..reps {
        let mut hv = warm.clone();
        let mut run = runner();
        let tier0 = *hv.tier_counters();
        let a0 = ALLOCS.load(Ordering::Relaxed);
        let t0 = Instant::now();
        while hv.now() < deadline && hv.detection().is_none() {
            // In 50 ms calls, as a trial's phases drive the loop, so a
            // per-call cost shows up in the section.
            let until = (hv.now() + CALL).min(deadline);
            run(&mut hv, until);
        }
        secs += t0.elapsed().as_secs_f64();
        allocs += ALLOCS.load(Ordering::Relaxed) - a0;
        assert!(
            hv.detection().is_none(),
            "a fault-free window must not detect"
        );
        let tier = hv.tier_counters().since(&tier0);
        last = Some((tier, hv));
    }
    let (tier, end) = last.expect("at least one repetition");
    let steps = end.steps_executed() - warm.steps_executed();
    Section {
        steps,
        secs,
        allocs: allocs / u64::from(reps),
        tier,
        end,
    }
}

/// A booted machine for `setup`, stepped through the warm-up.
fn warmed(setup: SetupKind) -> Hypervisor {
    let (mut hv, _layout) = build_system(MachineConfig::small(), setup, 2018);
    hv.run_until(SimTime::ZERO + WARMUP);
    hv
}

/// A 3AppVM machine right after NiLiHype recovered it: a fail-stop fault
/// injected with the injector as stop rule, detected, then recovered.
fn recovered_three_appvm() -> Hypervisor {
    let setup = SetupKind::ThreeAppVm;
    let (mut hv, _layout) = build_system(MachineConfig::small(), setup, TRIAL_SEED);
    let nilihype = MechanismSpec::parse("NiLiHype")
        .expect("a manifest spelling")
        .build();
    hv.support = nilihype.op_support();
    let mut inj = Injector::new(
        FaultType::Failstop,
        TRIAL_SEED,
        setup.trigger_window(),
        2_000,
    );
    let end = SimTime::ZERO + setup.bench_duration();
    while hv.detection().is_none() && hv.now() < end {
        inj.run_until(&mut hv, end);
    }
    assert!(hv.detection().is_some(), "the fail-stop fault is detected");
    nilihype
        .recover(&mut hv)
        .expect("NiLiHype recovers the trial");
    hv
}

/// One section's JSON object: `extra` fields, then the window's figures
/// and its tier counters (flat, so `bench_guard` can read every field).
fn json_section(name: &str, extra: &str, s: &Section, reps: u32) -> String {
    let mut out = format!("  \"{name}\": {{\n{extra}");
    out += &format!("    \"steps\": {},\n", s.steps);
    out += &format!(
        "    \"steps_per_sec\": {:.0},\n",
        s.steps as f64 * f64::from(reps) / s.secs
    );
    out += &format!(
        "    \"allocs_per_step\": {:.6}",
        s.allocs as f64 / s.steps.max(1) as f64
    );
    for (field, v) in s.tier.fields() {
        out += &format!(",\n    \"tier_{field}\": {v}");
    }
    out += "\n  }";
    out
}

fn main() {
    let mut reps: u32 = 5;
    let mut out = String::from("BENCH_stepper.json");
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--reps" => {
                reps = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&r| r > 0)
                    .expect("--reps R (at least 1)");
            }
            "--out" => out = args.next().expect("--out PATH"),
            other => panic!("unknown argument {other}"),
        }
    }
    let deadline = SimTime::ZERO + WARMUP + WINDOW;
    // Every window ends inside its workload's busy phase.
    let busy_end = |setup: SetupKind| SimTime::ZERO + setup.bench_duration();
    for setup in [
        SetupKind::OneAppVm(BenchKind::UnixBench),
        SetupKind::TwoAppVmVswitch,
        SetupKind::Overcommit(4),
    ] {
        assert!(deadline <= busy_end(setup), "{setup:?} window too long");
    }
    assert!(THREE_APPVM_END <= busy_end(SetupKind::ThreeAppVm));

    let app = warmed(SetupKind::OneAppVm(BenchKind::UnixBench));
    // The injector arms on the window's first step and its budget never
    // drains, keeping the counting window open for the whole section.
    let counting = Injector::with_ops_range(
        FaultType::Failstop,
        0,
        (SimTime::ZERO, SimTime::from_nanos(1)),
        (u64::MAX - 1, u64::MAX),
    );
    let per_step = measure(&app, deadline, reps, || {
        let mut inj = counting.clone();
        move |hv: &mut Hypervisor, dl| {
            inj.run_until(hv, dl);
        }
    });
    let plain = || |hv: &mut Hypervisor, dl| hv.run_until(dl);
    let batched = measure(&app, deadline, reps, plain);
    // The 1AppVM machine's whole simulated state at the window's end: a
    // speed-up that changed one RNG draw or one bound page moves it.
    let state_digest = batched.end.state_digest();
    assert_eq!(
        state_digest,
        per_step.end.state_digest(),
        "the counting path and the plain loop step the same window"
    );

    let vsw = warmed(SetupKind::TwoAppVmVswitch);
    let virtio = measure(&vsw, deadline, reps, plain);
    let frames = virtio.end.virtio.forwarded - vsw.virtio.forwarded;

    let oc = warmed(SetupKind::Overcommit(4));
    let overcommit = measure(&oc, deadline, reps, plain);
    // Scheduler state changes in the window, so a regression that silently
    // stops scheduling (rather than slowing it) also shows up.
    let mutations = overcommit.end.sched.mutation_generation() - oc.sched.mutation_generation();

    let recovered = recovered_three_appvm();
    let three_appvm = measure(&recovered, THREE_APPVM_END, reps, plain);
    assert_eq!(
        three_appvm.end.domains.len(),
        4,
        "the third AppVM is created inside the window"
    );
    let three_digest = three_appvm.end.state_digest();

    let sections = [
        json_section(
            "per_step",
            "    \"path\": \"injector_counting\",\n",
            &per_step,
            reps,
        ),
        json_section(
            "batched",
            &format!("    \"state_digest\": {state_digest},\n"),
            &batched,
            reps,
        ),
        json_section(
            "virtio",
            &format!(
                "    \"workload\": \"warm_trial/2appvm_vswitch\",\n    \"frames_forwarded\": {frames},\n"
            ),
            &virtio,
            reps,
        ),
        json_section(
            "overcommit",
            &format!(
                "    \"workload\": \"warm_trial/overcommit_4to1\",\n    \"sched_mutations\": {mutations},\n"
            ),
            &overcommit,
            reps,
        ),
        json_section(
            "three_appvm",
            &format!(
                "    \"workload\": \"post_recovery/3appvm_nilihype\",\n    \"state_digest\": {three_digest},\n"
            ),
            &three_appvm,
            reps,
        ),
    ];
    let json = format!(
        "{{\n  \"workload\": \"warm_trial/1appvm_unixbench\",\n  \"reps\": {reps},\n{}\n}}\n",
        sections.join(",\n")
    );
    std::fs::write(&out, &json).expect("write bench json");
    print!("{json}");
}
