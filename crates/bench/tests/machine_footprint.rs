//! Pins the memory footprint of a 3AppVM machine late in its run.
//!
//! Figure 2's trials run NetBench's 1-ms ping beside UnixBench and
//! BlkBench, and the sender logs every reply
//! (`nlh_hv::netlog::NetReplyLog`). Every fork of a running trial clones
//! the machine with its log, so the log's bytes per reply set what one
//! in-flight trial adds to the process's peak memory by the end of a
//! 27-s run. Stored as a `Vec<(u64, SimTime)>`, the log took 384 KB of
//! a 450-KB clone.
//!
//! A counting `#[global_allocator]` (test binaries get their own, so the
//! workspace libraries stay `forbid(unsafe_code)`) sums the bytes every
//! allocation and reallocation requests during one clone.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use nlh_campaign::{build_system, SetupKind};
use nlh_hv::MachineConfig;
use nlh_sim::SimTime;

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

/// Upper bound on the bytes one clone of the 27-s machine may allocate.
const CLONE_BYTES_MAX: u64 = 256 * 1024;

/// Upper bound on the reply log's average encoded bytes per reply.
const LOG_BYTES_PER_REPLY_MAX: usize = 6;

#[test]
fn late_three_appvm_clone_is_small() {
    // One test in this binary: the counter is process-wide.
    let (mut hv, _) = build_system(MachineConfig::small(), SetupKind::ThreeAppVm, 77);
    hv.run_until(SimTime::from_secs(27));
    assert!(hv.detection().is_none(), "a fault-free run detects nothing");

    let before = BYTES.load(Ordering::Relaxed);
    let copy = hv.clone();
    let bytes = BYTES.load(Ordering::Relaxed) - before;
    drop(copy);
    assert!(
        bytes < CLONE_BYTES_MAX,
        "a 27-s 3AppVM clone allocated {bytes} bytes (limit {CLONE_BYTES_MAX})"
    );

    let log = &hv.net_replies;
    assert!(log.len() > 20_000, "NetBench ran: {} replies", log.len());
    assert!(
        log.encoded_bytes() <= LOG_BYTES_PER_REPLY_MAX * log.len(),
        "{} replies took {} bytes",
        log.len(),
        log.encoded_bytes()
    );
}
