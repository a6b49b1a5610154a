//! Cycle accounting, split guest vs hypervisor.
//!
//! The paper's Figure 3 measures *hypervisor processing overhead*: the
//! percentage increase in unhalted cycles spent executing hypervisor code
//! with the NiLiHype modifications, relative to stock Xen, using one
//! hardware performance counter per CPU (Section VII-C). This module keeps
//! the equivalent counters: per-CPU cycles attributed to guest execution,
//! hypervisor execution, and — separately — the logging performed to support
//! recovery (the overhead source).

use nlh_sim::{CpuId, Cycles};
use serde::{Deserialize, Serialize};

/// Per-CPU cycle counters.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CpuCounters {
    /// Cycles executing guest code.
    pub guest: Cycles,
    /// Cycles executing hypervisor code (including logging).
    pub hypervisor: Cycles,
    /// Subset of `hypervisor` spent on recovery-support logging.
    pub logging: Cycles,
}

/// Cycle accounting across the machine.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CycleAccounting {
    per_cpu: Vec<CpuCounters>,
    /// Count of hypervisor micro-ops executed (drives the fault injector's
    /// second-level trigger, which fires after a number of instructions
    /// executed *in the target hypervisor* — Section VI-C).
    pub hv_micro_ops: u64,
}

impl CycleAccounting {
    /// Zeroed counters for `num_cpus` CPUs.
    pub fn new(num_cpus: usize) -> Self {
        CycleAccounting {
            per_cpu: vec![CpuCounters::default(); num_cpus],
            hv_micro_ops: 0,
        }
    }

    /// Charges guest cycles to `cpu`.
    pub fn charge_guest(&mut self, cpu: CpuId, cycles: Cycles) {
        self.per_cpu[cpu.index()].guest += cycles;
    }

    /// Charges hypervisor cycles to `cpu`; `logging_part` of them are
    /// attributed to recovery-support logging.
    pub fn charge_hv(&mut self, cpu: CpuId, cycles: Cycles, logging_part: Cycles) {
        let c = &mut self.per_cpu[cpu.index()];
        c.hypervisor += cycles;
        c.logging += logging_part;
        self.hv_micro_ops += 1;
    }

    /// Charges `count` fused hypervisor micro-ops to `cpu` in one call:
    /// `cycles` is the *total* across the run and every fused op counts
    /// toward the injection trigger, exactly as `count` individual
    /// [`CycleAccounting::charge_hv`] calls with zero logging would.
    /// Used by the superop dispatcher for fused `Compute` runs (which
    /// never carry a logging share).
    pub fn charge_hv_span(&mut self, cpu: CpuId, cycles: Cycles, count: u64) {
        let c = &mut self.per_cpu[cpu.index()];
        c.hypervisor += cycles;
        self.hv_micro_ops += count;
    }

    /// Takes back `count` ops of an earlier [`CycleAccounting::charge_hv_span`]
    /// on `cpu`, `cycles` in total: the batched loop's rewind of a
    /// `Compute` run it ran ahead of the other CPUs.
    pub fn uncharge_hv_span(&mut self, cpu: CpuId, cycles: Cycles, count: u64) {
        let c = &mut self.per_cpu[cpu.index()];
        c.hypervisor = c.hypervisor - cycles;
        self.hv_micro_ops -= count;
    }

    /// Counters for one CPU.
    pub fn cpu(&self, cpu: CpuId) -> &CpuCounters {
        &self.per_cpu[cpu.index()]
    }

    /// Total hypervisor cycles across CPUs (the Figure 3 numerator basis).
    pub fn total_hypervisor(&self) -> Cycles {
        self.per_cpu
            .iter()
            .fold(Cycles::ZERO, |a, c| a + c.hypervisor)
    }

    /// Total guest cycles across CPUs.
    pub fn total_guest(&self) -> Cycles {
        self.per_cpu.iter().fold(Cycles::ZERO, |a, c| a + c.guest)
    }

    /// Total logging cycles across CPUs.
    pub fn total_logging(&self) -> Cycles {
        self.per_cpu.iter().fold(Cycles::ZERO, |a, c| a + c.logging)
    }

    /// Fraction of all cycles spent in the hypervisor — the paper cites
    /// "less than 5% of CPU cycles" for typical deployments (Section VII-A).
    pub fn hypervisor_share(&self) -> f64 {
        let hv = self.total_hypervisor().count() as f64;
        let total = hv + self.total_guest().count() as f64;
        if total == 0.0 {
            0.0
        } else {
            hv / total
        }
    }

    /// Resets all counters (used at measurement-window start; the paper
    /// synchronizes benchmarks and measures only the window in which all of
    /// them run).
    pub fn reset(&mut self) {
        for c in &mut self.per_cpu {
            *c = CpuCounters::default();
        }
        // hv_micro_ops deliberately NOT reset: the injection trigger counts
        // from boot, matching Gigan's behaviour.
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn charges_accumulate_per_cpu() {
        let mut acc = CycleAccounting::new(2);
        acc.charge_guest(CpuId(0), Cycles(100));
        acc.charge_hv(CpuId(0), Cycles(10), Cycles(2));
        acc.charge_hv(CpuId(1), Cycles(5), Cycles::ZERO);
        assert_eq!(acc.cpu(CpuId(0)).guest, Cycles(100));
        assert_eq!(acc.cpu(CpuId(0)).hypervisor, Cycles(10));
        assert_eq!(acc.cpu(CpuId(0)).logging, Cycles(2));
        assert_eq!(acc.total_hypervisor(), Cycles(15));
        assert_eq!(acc.total_guest(), Cycles(100));
        assert_eq!(acc.total_logging(), Cycles(2));
        assert_eq!(acc.hv_micro_ops, 2);
    }

    #[test]
    fn span_charge_equals_repeated_single_charges() {
        let mut one = CycleAccounting::new(1);
        for _ in 0..7 {
            one.charge_hv(CpuId(0), Cycles(2500), Cycles::ZERO);
        }
        let mut span = CycleAccounting::new(1);
        span.charge_hv_span(CpuId(0), Cycles(2500 * 7), 7);
        assert_eq!(one, span);
        span.charge_hv_span(CpuId(0), Cycles(2500 * 4), 4);
        span.uncharge_hv_span(CpuId(0), Cycles(2500 * 4), 4);
        assert_eq!(one, span, "an uncharge takes back exactly its charge");
    }

    #[test]
    fn hypervisor_share() {
        let mut acc = CycleAccounting::new(1);
        acc.charge_guest(CpuId(0), Cycles(95));
        acc.charge_hv(CpuId(0), Cycles(5), Cycles::ZERO);
        assert!((acc.hypervisor_share() - 0.05).abs() < 1e-9);
    }

    #[test]
    fn empty_share_is_zero() {
        assert_eq!(CycleAccounting::new(4).hypervisor_share(), 0.0);
    }

    #[test]
    fn reset_preserves_trigger_count() {
        let mut acc = CycleAccounting::new(1);
        acc.charge_hv(CpuId(0), Cycles(5), Cycles(1));
        acc.reset();
        assert_eq!(acc.total_hypervisor(), Cycles::ZERO);
        assert_eq!(acc.hv_micro_ops, 1, "trigger counter survives reset");
    }
}
