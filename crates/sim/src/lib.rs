//! Deterministic simulation kernel for the NiLiHype reproduction.
//!
//! This crate provides the foundation every other crate in the workspace
//! builds on:
//!
//! * [`SimTime`] / [`SimDuration`] — nanosecond-resolution simulated time.
//! * [`Cycles`] — CPU cycle counts, convertible to time via a clock frequency.
//! * [`Pcg64`] — a small, fast, fully deterministic random number generator.
//!   Every stochastic decision in the simulator flows through a seeded
//!   [`Pcg64`] so that a trial is exactly reproducible from its seed.
//! * Typed identifiers ([`CpuId`], [`DomId`], [`VcpuId`], [`PageNum`]) so the
//!   hypervisor substrate cannot confuse, say, a physical CPU with a vCPU.
//! * [`stats`] — means, proportions and confidence intervals used by the
//!   fault-injection campaigns.
//!
//! # Example
//!
//! ```
//! use nlh_sim::{Pcg64, SimTime, SimDuration};
//!
//! let mut rng = Pcg64::seed_from_u64(42);
//! let t = SimTime::ZERO + SimDuration::from_millis(5);
//! assert_eq!(t.as_nanos(), 5_000_000);
//! let x = rng.gen_range_u64(0, 10);
//! assert!(x < 10);
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod digest;
mod ids;
mod rng;
pub mod stats;
mod time;

pub use ids::{CpuId, DomId, IrqVector, LockId, PageNum, VcpuId};
pub use rng::Pcg64;
pub use time::{Cycles, SimDuration, SimTime};
