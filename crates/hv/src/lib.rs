//! A simulated Xen-like virtualization platform.
//!
//! This crate is the substrate the NiLiHype reproduction runs on. The paper
//! ("Fast Hypervisor Recovery Without Reboot", DSN 2018) modifies the Xen
//! hypervisor; since no Rust Xen exists, this crate models the hypervisor at
//! exactly the level of abstraction the paper's recovery mechanisms operate
//! on:
//!
//! * [`mem`] — page-frame descriptors (validation bit + use counter), the
//!   hypervisor heap, and guest page mappings.
//! * [`netlog`] — the NetBench sender's reply log, stored compactly and
//!   exactly.
//! * [`locks`] — spinlocks, split into the *static segment* (the array the
//!   paper's "unlock static locks" enhancement iterates) and heap locks.
//! * [`percpu`] — per-CPU state: `local_irq_count`, the hypervisor stack,
//!   saved FS/GS, and the local APIC timer.
//! * [`sched`] — runqueues and the redundantly-stored current-vCPU metadata
//!   whose inconsistencies the paper's scheduling enhancement repairs.
//! * [`timers`] — the software timer heap and the recurring events
//!   (time-sync, watchdog heartbeat, scheduler tick) that must be re-armed.
//! * [`interrupts`] — pending/in-service interrupt state, I/O APIC registers,
//!   and inter-processor interrupts.
//! * [`hypercalls`] — hypercall handlers compiled to micro-op programs so a
//!   fault can strike *between* any two state updates, leaving exactly the
//!   partial-execution residue the paper's enhancements must repair.
//! * [`domain`] — the privileged VM and application VMs, their vCPUs, and
//!   the [`domain::GuestProgram`] trait workloads implement.
//! * [`detect`] — the panic and watchdog (hang) detectors that initiate
//!   recovery.
//! * [`Hypervisor`] — the aggregate machine, stepped one micro-op at a time
//!   by one batched loop ([`Hypervisor::run_batched`]) whose callers differ
//!   only in their [`StopRule`], checked against one unbatched reference
//!   ([`Hypervisor::run_until_unbatched`]).
//!
//! The simulation is fully deterministic: all randomness flows through a
//! seeded [`nlh_sim::Pcg64`].
//!
//! # Example
//!
//! ```
//! use nlh_hv::{Hypervisor, MachineConfig};
//!
//! let mut hv = Hypervisor::new(MachineConfig::small(), 42);
//! hv.run_for(nlh_sim::SimDuration::from_millis(50));
//! assert!(hv.detection().is_none(), "no faults injected, so no detection");
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod accounting;
pub mod chaos;
mod config;
pub mod detect;
pub mod domain;
pub mod hypercalls;
mod hypervisor;
pub mod interrupts;
pub mod invariants;
pub mod locks;
pub mod mem;
pub mod netlog;
pub mod percpu;
pub mod sched;
pub mod timers;

pub use config::{HvTuning, MachineConfig};
pub use hypercalls::HandlerKind;
pub use hypervisor::{CpuMode, Hypervisor, StepOutcome, StopRule, TierCounters};

/// Re-exported id types, so downstream crates rarely need `nlh-sim` directly.
pub use nlh_sim::{CpuId, DomId, IrqVector, LockId, PageNum, VcpuId};
