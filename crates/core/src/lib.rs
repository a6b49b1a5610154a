//! **NiLiHype / ReHype** — the paper's contribution: component-level
//! recovery (CLR) of a hypervisor, with and without reboot.
//!
//! This crate implements the two recovery mechanisms of *"Fast Hypervisor
//! Recovery Without Reboot"* (Zhou & Tamir, DSN 2018) against the simulated
//! Xen-like substrate in [`nlh_hv`]:
//!
//! * [`Microreset`] (**NiLiHype**) — on error detection, every hypervisor
//!   execution thread is discarded, resetting the component to a quiescent
//!   state; a set of [`Enhancements`] then repairs the abandonment residue
//!   and the inconsistencies with the rest of the system. Recovery latency
//!   is dominated by the page-frame consistency scan (~22 ms total on the
//!   paper's 8 GB machine — Table III).
//! * [`Microreboot`] (**ReHype**) — a new hypervisor instance is booted
//!   while preserving VM state in place; preserved state is re-integrated
//!   into the new instance. The boot re-initializes hardware and a portion
//!   of hypervisor state (which is why ReHype recovers slightly more
//!   corruption cases), at the cost of ~713 ms (Table II).
//!
//! A third design point from Section II-B, [`CheckpointRestore`] (rollback
//! to a post-boot checkpoint followed by state re-integration), is also
//! implemented so the full design space can be measured.
//!
//! All three implement [`RecoveryMechanism`]; a campaign drives the
//! simulation, and when a detector fires it calls
//! [`RecoveryMechanism::recover`]. A [`MechanismSpec`] names any
//! configuration of the three as plain data, with one spelling each
//! (`NiLiHype`, `Rung(Basic)`, `NiLiHype(-pfd_scan)`, `ReHype`, ...).
//!
//! # Example
//!
//! ```
//! use nlh_core::{Microreset, RecoveryMechanism};
//! use nlh_hv::{Hypervisor, MachineConfig};
//!
//! let mech = Microreset::nilihype();
//! let mut hv = Hypervisor::new(MachineConfig::small(), 1);
//! hv.support = mech.op_support();
//! // ... run, inject, detect ...
//! hv.raise_panic(nlh_sim::CpuId(0), "example fault");
//! let report = mech.recover(&mut hv).expect("recovery runs");
//! assert!(report.total.as_millis() < 100, "microreset is fast");
//! assert!(hv.detection().is_none(), "machine resumed");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod checkpoint;
mod clr;
mod enhancements;
mod latency;
mod mechanism;
mod microreboot;
mod microreset;
mod shared;

pub use checkpoint::CheckpointRestore;
pub use clr::{RecoveryError, RecoveryMechanism, RecoveryPlan, RecoveryReport, RecoveryStep};
pub use enhancements::{Enhancements, LadderRung};
pub use latency::CostModel;
pub use mechanism::MechanismSpec;
pub use microreboot::{Microreboot, ReHypeConfig};
pub use microreset::{DiscardPolicy, Microreset};
