//! Benchmark helpers for the NiLiHype reproduction.
//!
//! The measurable benchmarks live under `benches/` (Criterion harnesses):
//!
//! * `recovery` — wall-clock cost of a microreset vs microreboot recovery
//!   pass over the simulated machine state (the simulated latencies are
//!   reported by the `latency` experiment binary; this measures
//!   the *implementation*).
//! * `substrate` — hypervisor-substrate hot paths: stepping, the page-frame
//!   scan, timer-heap churn, lock registry operations.
//! * `campaign` — end-to-end cost of one fault-injection trial.

#![forbid(unsafe_code)]

use nlh_hv::domain::{DomainKind, DomainSpec, IdleLoop};
use nlh_hv::{CpuId, Hypervisor, MachineConfig};

/// Builds a small machine with a PrivVM and one AppVM, ready to run.
pub fn small_machine(seed: u64) -> Hypervisor {
    let mut hv = Hypervisor::new(MachineConfig::small(), seed);
    hv.add_boot_domain(DomainSpec {
        kind: DomainKind::Priv,
        pages: 64,
        pinned_cpu: CpuId(0),
        program: Box::new(IdleLoop),
    });
    hv.add_boot_domain(DomainSpec {
        kind: DomainKind::App,
        pages: 64,
        pinned_cpu: CpuId(1),
        program: Box::new(IdleLoop),
    });
    hv
}
