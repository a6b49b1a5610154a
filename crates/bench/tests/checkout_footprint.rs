//! Pins the memory footprint of a warm boot-cache checkout.
//!
//! A checkout deep-clones the post-boot template, so the bytes it
//! allocates are the resident cost of one in-flight trial machine: what
//! each concurrently running campaign cell adds to the process's peak
//! RSS. Boot-time data that trials never change must not be copied per
//! trial: the page-frame table stores only the frames a booted machine
//! touched, and the boot-scrub ledger is shared with the template.
//!
//! A counting `#[global_allocator]` (test binaries get their own, so the
//! workspace libraries stay `forbid(unsafe_code)`) sums the bytes every
//! allocation and reallocation requests during one warm checkout.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use nlh_campaign::{BenchKind, BootCache, SetupKind};
use nlh_hv::MachineConfig;

struct CountingAlloc;

static BYTES: AtomicU64 = AtomicU64::new(0);

// SAFETY: delegates directly to the system allocator; the counter is a
// relaxed atomic with no effect on allocation behaviour.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static A: CountingAlloc = CountingAlloc;

/// Upper bound on the bytes one warm checkout may allocate. Storing every
/// descriptor, the full free list and a private scrub ledger cost about
/// 455 KiB per checkout on `MachineConfig::small()`.
const CHECKOUT_BYTES_MAX: u64 = 64 * 1024;

/// Bytes allocated by one warm checkout of `setup` on `machine`.
fn checkout_bytes(cache: &BootCache, machine: &MachineConfig, setup: SetupKind) -> u64 {
    drop(cache.checkout(machine, setup, 0)); // builds the template
    let before = BYTES.load(Ordering::Relaxed);
    let system = cache.checkout(machine, setup, 1);
    let bytes = BYTES.load(Ordering::Relaxed) - before;
    drop(system);
    bytes
}

#[test]
fn warm_checkout_is_small_and_independent_of_memory_size() {
    // One test in this binary: the counter is process-wide.
    let small = MachineConfig::small();
    let large = MachineConfig {
        memory_mib: 2 * small.memory_mib,
        ..small.clone()
    };
    let cache = BootCache::new();
    for setup in [
        SetupKind::OneAppVm(BenchKind::UnixBench),
        SetupKind::OneAppVm(BenchKind::NetBench),
        SetupKind::OneAppVm(BenchKind::BlkBench),
        SetupKind::ThreeAppVm,
        SetupKind::TwoAppVmSharedCpu,
        SetupKind::TwoAppVmVswitch,
        SetupKind::Overcommit(2),
        SetupKind::Overcommit(4),
        SetupKind::Overcommit(8),
    ] {
        let bytes = checkout_bytes(&cache, &small, setup);
        assert_eq!(
            checkout_bytes(&cache, &large, setup),
            bytes,
            "{setup:?}: doubling memory must not grow a checkout"
        );
        // 8:1 overcommit boots 16 AppVMs that own 3,300 frames; their
        // descriptors alone take 53 KB, so it gets only the check above.
        if setup != SetupKind::Overcommit(8) {
            assert!(
                bytes < CHECKOUT_BYTES_MAX,
                "{setup:?}: a warm checkout allocated {bytes} bytes (limit {CHECKOUT_BYTES_MAX})"
            );
        }
    }
}
