//! Quick-mode stepper benchmark: steps/sec and allocs/step on the
//! warm-trial workload, written as `BENCH_stepper.json`.
//!
//! CI runs this on every push so the stepping-hot-path trajectory is
//! tracked from PR 5 onward (see `ARCHITECTURE.md`, "How to profile a
//! trial"). The workload is the campaign's warm-trial body: a booted
//! 1AppVM/UnixBench system stepped through its steady state — timer
//! interrupts, scheduler ticks, hypercalls, idle — exactly what dominates
//! a fault-injection campaign after PR 1's warm-start change.
//!
//! Usage: `stepper_bench [--steps N] [--out PATH]`

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use nlh_campaign::{build_system, BenchKind, SetupKind};
use nlh_hv::MachineConfig;
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

fn main() {
    let mut steps: u64 = 2_000_000;
    let mut out = String::from("BENCH_stepper.json");
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--steps" => {
                steps = args.next().and_then(|v| v.parse().ok()).expect("--steps N");
            }
            "--out" => out = args.next().expect("--out PATH"),
            other => panic!("unknown argument {other}"),
        }
    }

    // The tracked workload: warm-trial steady state (PrivVM + UnixBench
    // AppVM), past the boot transient.
    let (mut hv, _layout) = build_system(
        MachineConfig::small(),
        SetupKind::OneAppVm(BenchKind::UnixBench),
        2018,
    );
    hv.run_for(SimDuration::from_millis(200));

    // Counting path (what the trial loop drives while the injector is
    // counting micro-ops): the batched loop with the injector as its stop
    // rule, so every hypervisor micro-op passes the counting automaton,
    // in bulk for fused spans. The injector arms on the first step and its
    // budget never drains, keeping the window open for the whole
    // measurement.
    let mut counting = Injector::with_ops_range(
        FaultType::Failstop,
        0,
        (SimTime::ZERO, SimTime::from_nanos(1)),
        (u64::MAX - 1, u64::MAX),
    );
    let before0 = hv.steps_executed();
    let a0 = ALLOCS.load(Ordering::Relaxed);
    let t0 = Instant::now();
    while hv.steps_executed() - before0 < steps && hv.detection().is_none() {
        let deadline = hv.now() + SimDuration::from_millis(50);
        counting.run_until(&mut hv, deadline);
    }
    let per_step_secs = t0.elapsed().as_secs_f64();
    let per_step_steps = hv.steps_executed() - before0;
    let per_step_allocs = ALLOCS.load(Ordering::Relaxed) - a0;
    let per_step_rate = per_step_steps as f64 / per_step_secs;

    // Batched path (what run_until/run_for drive outside the injection
    // window): run the same number of steps through the batched loop.
    let before = hv.steps_executed();
    let a1 = ALLOCS.load(Ordering::Relaxed);
    let t1 = Instant::now();
    while hv.steps_executed() - before < steps && hv.detection().is_none() {
        hv.run_for(SimDuration::from_millis(50));
    }
    let batched_secs = t1.elapsed().as_secs_f64();
    let batched_steps = hv.steps_executed() - before;
    let batched_allocs = ALLOCS.load(Ordering::Relaxed) - a1;
    let batched_rate = batched_steps as f64 / batched_secs;
    // The 1AppVM machine's whole simulated state after both sections: a
    // speed-up that changed one RNG draw or one bound page moves it.
    let state_digest = hv.state_digest();

    // Virtio datapath (PR 7): the 2AppVM vswitch workload, where every
    // queue-notify handler walks a descriptor-ring transaction and tx
    // frames are forwarded guest-to-guest. Same batched loop, so the
    // number is comparable to `batched` above.
    let (mut vhv, _vlayout) =
        build_system(MachineConfig::small(), SetupKind::TwoAppVmVswitch, 2018);
    vhv.run_for(SimDuration::from_millis(200));
    let vbefore = vhv.steps_executed();
    let vframes0 = vhv.virtio.forwarded;
    let a2 = ALLOCS.load(Ordering::Relaxed);
    let t2 = Instant::now();
    while vhv.steps_executed() - vbefore < steps && vhv.detection().is_none() {
        vhv.run_for(SimDuration::from_millis(50));
    }
    let virtio_secs = t2.elapsed().as_secs_f64();
    let virtio_steps = vhv.steps_executed() - vbefore;
    let virtio_allocs = ALLOCS.load(Ordering::Relaxed) - a2;
    let virtio_frames = vhv.virtio.forwarded - vframes0;
    let virtio_rate = virtio_steps as f64 / virtio_secs;

    // Overcommit datapath (PR 8): the 4:1 credit-scheduler workload —
    // preemption switches, WFI block/wake, load-balancing migrations —
    // through the same batched loop. `sched_mutations` counts scheduler
    // state changes in the window, so a regression that silently stops
    // scheduling (rather than slowing it) also shows up.
    let (mut ohv, _olayout) = build_system(MachineConfig::small(), SetupKind::Overcommit(4), 2018);
    ohv.run_for(SimDuration::from_millis(200));
    let obefore = ohv.steps_executed();
    let ogen0 = ohv.sched.mutation_generation();
    let a3 = ALLOCS.load(Ordering::Relaxed);
    let t3 = Instant::now();
    while ohv.steps_executed() - obefore < steps && ohv.detection().is_none() {
        ohv.run_for(SimDuration::from_millis(50));
    }
    let oc_secs = t3.elapsed().as_secs_f64();
    let oc_steps = ohv.steps_executed() - obefore;
    let oc_allocs = ALLOCS.load(Ordering::Relaxed) - a3;
    let oc_mutations = ohv.sched.mutation_generation() - ogen0;
    let oc_rate = oc_steps as f64 / oc_secs;

    let json = format!(
        "{{\n  \"workload\": \"warm_trial/1appvm_unixbench\",\n  \"steps\": {steps},\n  \"per_step\": {{\n    \"path\": \"injector_counting\",\n    \"steps_per_sec\": {per_step_rate:.0},\n    \"allocs_per_step\": {:.6}\n  }},\n  \"batched\": {{\n    \"steps_per_sec\": {batched_rate:.0},\n    \"allocs_per_step\": {:.6},\n    \"state_digest\": {state_digest}\n  }},\n  \"virtio\": {{\n    \"workload\": \"warm_trial/2appvm_vswitch\",\n    \"steps_per_sec\": {virtio_rate:.0},\n    \"allocs_per_step\": {:.6},\n    \"frames_forwarded\": {virtio_frames}\n  }},\n  \"overcommit\": {{\n    \"workload\": \"warm_trial/overcommit_4to1\",\n    \"steps_per_sec\": {oc_rate:.0},\n    \"allocs_per_step\": {:.6},\n    \"sched_mutations\": {oc_mutations}\n  }}\n}}\n",
        per_step_allocs as f64 / per_step_steps.max(1) as f64,
        batched_allocs as f64 / batched_steps.max(1) as f64,
        virtio_allocs as f64 / virtio_steps.max(1) as f64,
        oc_allocs as f64 / oc_steps.max(1) as f64,
    );
    std::fs::write(&out, &json).expect("write bench json");
    print!("{json}");
}
