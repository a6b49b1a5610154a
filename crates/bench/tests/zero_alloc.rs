//! Pins the stepper fast path's headline property: once a warm-trial
//! system reaches steady state, stepping performs **zero** heap
//! allocations per micro-op.
//!
//! A counting `#[global_allocator]` (test binaries get their own, so the
//! workspace libraries stay `forbid(unsafe_code)`) watches a long batched
//! run after a warm-up window. The warm-up lets the per-CPU program pools
//! fill, every pooled buffer grow to the longest handler it will carry,
//! and the hypervisor's scratch vectors reach their high-water marks;
//! after that, every handler entry must be served from recycled buffers.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};

use nlh_campaign::{build_system, BenchKind, SetupKind};
use nlh_hv::MachineConfig;
use nlh_inject::{FaultType, Injector};
use nlh_sim::{SimDuration, SimTime};

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

/// The allocation counter is process-wide and `cargo test` runs tests on
/// parallel threads, so every test holds this lock for its whole run:
/// otherwise one test's warm-up allocations land in another's window. The
/// lock guards no data, so a test that failed holding it poisons nothing.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

/// Drives the batched stepping loop (what trials run outside the
/// injection window) for at least `n` steps of simulated work.
fn run_steps(hv: &mut nlh_hv::Hypervisor, n: u64) {
    let target = hv.steps_executed() + n;
    while hv.steps_executed() < target {
        assert!(hv.detection().is_none(), "healthy run must not detect");
        hv.run_for(SimDuration::from_millis(50));
    }
}

#[test]
fn steady_state_stepping_allocates_nothing() {
    let _serial = serial();
    let (mut hv, _layout) = build_system(
        MachineConfig::small(),
        SetupKind::OneAppVm(BenchKind::UnixBench),
        2018,
    );
    // Warm-up: fill the program pools and grow scratch to steady state.
    run_steps(&mut hv, 500_000);

    let before_steps = hv.steps_executed();
    let before_allocs = ALLOCS.load(Ordering::Relaxed);
    run_steps(&mut hv, 300_000);
    let steps = hv.steps_executed() - before_steps;
    let allocs = ALLOCS.load(Ordering::Relaxed) - before_allocs;

    assert!(
        steps >= 300_000,
        "workload actually stepped ({steps} steps)"
    );
    assert_eq!(
        allocs, 0,
        "steady-state stepping must not allocate: {allocs} allocations \
         over {steps} steps"
    );
}

#[test]
fn virtio_datapath_steady_state_allocates_nothing() {
    let _serial = serial();
    let (mut hv, _layout) = build_system(MachineConfig::small(), SetupKind::TwoAppVmVswitch, 2018);
    // Warm-up covers the virtio paths too: queue-notify programs enter the
    // per-CPU pools, and the descriptor rings are fixed-size arrays that
    // never grow.
    run_steps(&mut hv, 500_000);

    let before_steps = hv.steps_executed();
    let before_frames = hv.virtio.forwarded;
    let before_allocs = ALLOCS.load(Ordering::Relaxed);
    run_steps(&mut hv, 300_000);
    let steps = hv.steps_executed() - before_steps;
    let frames = hv.virtio.forwarded - before_frames;
    let allocs = ALLOCS.load(Ordering::Relaxed) - before_allocs;

    assert!(
        frames > 0,
        "the vswitch datapath (submit/complete/forward) must actually run \
         during the measured window"
    );
    assert_eq!(
        allocs, 0,
        "virtio steady state must not allocate: {allocs} allocations over \
         {steps} steps / {frames} forwarded frames"
    );
}

#[test]
fn overcommit_datapath_steady_state_allocates_nothing() {
    let _serial = serial();
    let (mut hv, _layout) = build_system(MachineConfig::small(), SetupKind::Overcommit(4), 2018);
    // Warm-up covers the credit scheduler's whole datapath: preemption
    // context switches, WFI block/wake switches and load-balancing
    // migration programs all enter the per-CPU pools, and the runqueues
    // and binding pools reach their high-water marks. It runs past the
    // benchmarks' end so the measured window is pure scheduler: finished
    // vCPUs stay runnable, so the credit tick keeps rotating all eight of
    // them — the one remaining allocator in an *active* window is the
    // workload itself (UnixBench's multicall construction), which is not
    // the datapath under test.
    run_steps(&mut hv, 500_000);
    while hv.now() < nlh_sim::SimTime::from_millis(10_500) {
        hv.run_for(SimDuration::from_millis(50));
    }

    let before_steps = hv.steps_executed();
    let before_gen = hv.sched.mutation_generation();
    let before_allocs = ALLOCS.load(Ordering::Relaxed);
    run_steps(&mut hv, 300_000);
    let steps = hv.steps_executed() - before_steps;
    let switches = hv.sched.mutation_generation() - before_gen;
    let allocs = ALLOCS.load(Ordering::Relaxed) - before_allocs;

    assert!(
        hv.sched.credit_mode(),
        "4:1 setup runs the credit scheduler"
    );
    assert!(hv.sched.check_all().is_ok());
    assert!(
        switches > 1_000,
        "the credit scheduler must actually run in the measured window \
         ({switches} mutations)"
    );
    assert_eq!(
        allocs, 0,
        "overcommit steady state must not allocate: {allocs} allocations \
         over {steps} steps / {switches} scheduler mutations"
    );
}

/// A copy of a warmed machine — what a trial group's fork runs on —
/// recycles program buffers, binding lists and scratch lists from its
/// first step, as the original does: their clones keep every buffer's
/// capacity. What still allocates in the copy's first busy window is
/// simulated state whose vectors the derived clone copies at their length
/// (per-CPU frame stacks, event and run queues, page lists, the undo log,
/// workload queues) and that grows past it once. On 1AppVM that is 12
/// allocations over 300k steps, against 55 before the pools kept their
/// capacity; the bound leaves room for run-to-run placement of those
/// first growths, not for the pools.
#[test]
fn clone_of_a_warmed_machine_recycles_its_pools() {
    const FIRST_WINDOW_ALLOCS_MAX: u64 = 16;
    let _serial = serial();
    for setup in [
        SetupKind::OneAppVm(BenchKind::UnixBench),
        SetupKind::TwoAppVmVswitch,
    ] {
        let (mut hv, _layout) = build_system(MachineConfig::small(), setup, 2018);
        run_steps(&mut hv, 500_000);
        let mut copy = hv.clone();

        let before_steps = copy.steps_executed();
        let before_allocs = ALLOCS.load(Ordering::Relaxed);
        run_steps(&mut copy, 300_000);
        let steps = copy.steps_executed() - before_steps;
        let allocs = ALLOCS.load(Ordering::Relaxed) - before_allocs;

        assert!(
            allocs <= FIRST_WINDOW_ALLOCS_MAX,
            "{setup:?}: a clone's first busy window allocated {allocs} times over \
             {steps} steps (limit {FIRST_WINDOW_ALLOCS_MAX})"
        );
        // Once grown, the copy is as allocation-free as the original.
        let before_allocs = ALLOCS.load(Ordering::Relaxed);
        run_steps(&mut copy, 300_000);
        assert_eq!(
            ALLOCS.load(Ordering::Relaxed) - before_allocs,
            0,
            "{setup:?}: the copy's second window must not allocate"
        );
    }
}

#[test]
fn counting_window_steady_state_allocates_nothing() {
    let _serial = serial();
    // The injector's counting window rides the batched loop as its stop
    // rule; a trial spends its whole pre-fire window here, so it gets the
    // same exact-zero pin as the plain batched loop. The injector arms on
    // the first step and its budget never drains, keeping the window open
    // for the whole measurement.
    let (mut hv, _layout) = build_system(
        MachineConfig::small(),
        SetupKind::OneAppVm(BenchKind::UnixBench),
        2018,
    );
    run_steps(&mut hv, 500_000);
    let mut counting = Injector::with_ops_range(
        FaultType::Failstop,
        0,
        (SimTime::ZERO, SimTime::from_nanos(1)),
        (u64::MAX - 1, u64::MAX),
    );

    let before_steps = hv.steps_executed();
    let before_allocs = ALLOCS.load(Ordering::Relaxed);
    while hv.steps_executed() - before_steps < 300_000 {
        assert!(hv.detection().is_none(), "healthy run must not detect");
        let deadline = hv.now() + SimDuration::from_millis(50);
        assert!(
            !counting.run_until(&mut hv, deadline),
            "budget never drains"
        );
    }
    let steps = hv.steps_executed() - before_steps;
    let allocs = ALLOCS.load(Ordering::Relaxed) - before_allocs;

    assert_eq!(
        allocs, 0,
        "the counting window must not allocate: {allocs} allocations over \
         {steps} steps"
    );
}
