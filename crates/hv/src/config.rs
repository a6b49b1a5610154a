//! Machine and hypervisor tuning parameters.

use nlh_sim::SimDuration;
use serde::{Deserialize, Serialize};

/// Physical machine configuration.
///
/// The paper's testbed is an 8-core Intel Nehalem machine with 8 GB of
/// memory and a clock around 2.5 GHz. Fault-injection campaigns use a
/// smaller memory so trials stay fast (the recovery *rate* is insensitive to
/// memory size; the recovery *latency* experiments use [`MachineConfig::paper`]).
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct MachineConfig {
    /// Number of physical CPUs.
    pub num_cpus: usize,
    /// Physical memory in MiB (4 KiB pages).
    pub memory_mib: u64,
    /// CPU clock frequency in MHz.
    pub cpu_freq_mhz: u64,
}

impl MachineConfig {
    /// The paper's testbed: 8 cores, 8 GiB, ~2.5 GHz.
    pub fn paper() -> Self {
        MachineConfig {
            num_cpus: 8,
            memory_mib: 8 * 1024,
            cpu_freq_mhz: 2_500,
        }
    }

    /// A small machine for fast campaign trials: 8 cores, 64 MiB.
    pub fn small() -> Self {
        MachineConfig {
            num_cpus: 8,
            memory_mib: 64,
            cpu_freq_mhz: 2_500,
        }
    }

    /// Total number of 4 KiB page frames.
    pub fn num_pages(&self) -> usize {
        (self.memory_mib * 1024 / 4) as usize
    }

    /// Frames the hypervisor's boot heap takes before any domain exists:
    /// one scheduler object and one timer-heap object per CPU.
    pub fn boot_heap_pages(&self) -> usize {
        self.num_cpus.saturating_mul(2)
    }
}

impl Default for MachineConfig {
    fn default() -> Self {
        MachineConfig::small()
    }
}

/// Hypervisor simulation tuning knobs.
///
/// These set the granularity of the simulation: how long guest compute
/// slices are, how often the per-CPU tick fires, and how many cycles each
/// hypervisor micro-op costs. The *ratios* between them determine where
/// faults land (which hypervisor context) and therefore drive the recovery
/// rates; they are calibrated once in `nlh-campaign` against the paper's
/// Table I ladder and then shared by every experiment.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HvTuning {
    /// Period of the per-CPU APIC tick (drives timer heap + scheduler).
    pub tick_period: SimDuration,
    /// Period of the global time-sync recurring event.
    pub time_sync_period: SimDuration,
    /// Period of the per-CPU watchdog heartbeat event.
    pub watchdog_heartbeat_period: SimDuration,
    /// Interval of the watchdog perf-counter NMI check.
    pub watchdog_nmi_period: SimDuration,
    /// Consecutive stalled NMI checks before a hang is declared (paper: 3).
    pub watchdog_stall_threshold: u32,
    /// Cycles charged per generic hypervisor micro-op.
    pub cycles_per_micro_op: u64,
    /// Extra cycles charged per undo-log write (the paper's main source of
    /// normal-operation overhead).
    pub cycles_per_log_write: u64,
    /// Extra cycles charged per batched-hypercall completion-log write
    /// (one word, much cheaper than an undo record).
    pub cycles_per_completion_log: u64,
    /// Simulated quantum a halted/idle CPU advances per step.
    pub idle_quantum: SimDuration,
    /// Probability that a guest whose FS/GS was clobbered is actively using
    /// TLS and therefore fails (see Section IV, "Save FS/GS").
    pub tls_sensitivity: f64,
}

impl HvTuning {
    /// The calibrated defaults used by all experiments.
    pub fn calibrated() -> Self {
        HvTuning {
            tick_period: SimDuration::from_millis(40),
            time_sync_period: SimDuration::from_millis(30),
            watchdog_heartbeat_period: SimDuration::from_millis(100),
            watchdog_nmi_period: SimDuration::from_millis(100),
            watchdog_stall_threshold: 3,
            cycles_per_micro_op: 2_500, // 1 us at 2.5 GHz: coarse-grained micro-ops
            cycles_per_log_write: 400,
            cycles_per_completion_log: 80,
            idle_quantum: SimDuration::from_micros(500),
            tls_sensitivity: 0.55,
        }
    }
}

impl Default for HvTuning {
    fn default() -> Self {
        HvTuning::calibrated()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_machine_has_2m_pages() {
        assert_eq!(MachineConfig::paper().num_pages(), 2 * 1024 * 1024);
    }

    #[test]
    fn small_machine_is_small() {
        let c = MachineConfig::small();
        assert_eq!(c.num_pages(), 16_384);
        assert_eq!(c.num_cpus, 8);
    }

    #[test]
    fn tuning_defaults_are_calibrated() {
        assert_eq!(HvTuning::default(), HvTuning::calibrated());
        let t = HvTuning::default();
        assert!(t.watchdog_stall_threshold >= 1);
        assert!(t.cycles_per_micro_op > 0);
    }
}
