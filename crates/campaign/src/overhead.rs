//! Normal-operation hypervisor processing overhead (Figure 3,
//! Section VII-C).
//!
//! The paper measures, per configuration, the percent increase in unhalted
//! cycles spent executing hypervisor code with the NiLiHype modifications
//! relative to stock Xen, on bare hardware with synchronized benchmarks.
//! Here the equivalent is a fault-free run of the same workload under two
//! [`OpSupport`] configurations, comparing total hypervisor cycles.

use nlh_hv::hypercalls::OpSupport;
use nlh_hv::MachineConfig;
use nlh_sim::{Cycles, SimDuration};
use serde::{Deserialize, Serialize};

use crate::setup::{build_system, SetupKind};

/// One measured configuration for the Figure 3 reproduction.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct OverheadPoint {
    /// Configuration label (e.g. `"BlkBench"`, `"3AppVM"`).
    pub label: String,
    /// Hypervisor cycles with the full mechanism (logging on).
    pub cycles_full: u64,
    /// Hypervisor cycles without the non-idempotent logging (NiLiHype*).
    pub cycles_no_logging: u64,
    /// Hypervisor cycles with stock support (no recovery features).
    pub cycles_stock: u64,
    /// Hypervisor share of total cycles (sanity: the paper cites <5%).
    pub hv_share: f64,
}

/// Percent increase of `with` over `base`.
pub fn overhead_percent(with: u64, base: u64) -> f64 {
    if base == 0 {
        0.0
    } else {
        (with as f64 - base as f64) / base as f64 * 100.0
    }
}

/// Runs a fault-free measurement window of `dur` under `support` and
/// returns (hypervisor cycles, guest cycles).
pub fn measure_hv_cycles(
    setup: SetupKind,
    support: OpSupport,
    seed: u64,
    dur: SimDuration,
) -> (Cycles, Cycles) {
    let (mut hv, _) = build_system(MachineConfig::small(), setup, seed);
    if setup == SetupKind::ThreeAppVm {
        // Figure 3 uses "a slightly modified version of the 3AppVM setup":
        // since no recovery happens, all three AppVMs are created at the
        // same time and run throughout (Section VII-C).
        hv.create_queue.clear();
        hv.add_boot_domain(nlh_hv::domain::DomainSpec {
            kind: nlh_hv::domain::DomainKind::App,
            pages: 192,
            pinned_cpu: nlh_sim::CpuId(3),
            program: Box::new(nlh_workloads::BlkBench::new(
                seed ^ 0xB1,
                dur + SimDuration::from_secs(2),
                hv.tuning.tls_sensitivity,
            )),
        });
    }
    hv.support = support;
    // Warm up briefly, then reset counters for the measurement window (the
    // paper starts counting when all benchmarks are ready).
    hv.run_for(SimDuration::from_millis(50));
    hv.accounting.reset();
    hv.run_for(dur);
    assert!(
        hv.detection().is_none(),
        "overhead runs are fault-free: {:?}",
        hv.detection()
    );
    (
        hv.accounting.total_hypervisor(),
        hv.accounting.total_guest(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::setup::BenchKind;

    #[test]
    fn logging_costs_hypervisor_cycles() {
        let dur = SimDuration::from_millis(800);
        let full = OpSupport::full();
        let stock = OpSupport::none();
        let (hv_full, _) =
            measure_hv_cycles(SetupKind::OneAppVm(BenchKind::UnixBench), full, 5, dur);
        let (hv_stock, guest) =
            measure_hv_cycles(SetupKind::OneAppVm(BenchKind::UnixBench), stock, 5, dur);
        let pct = overhead_percent(hv_full.count(), hv_stock.count());
        assert!(pct > 0.2, "logging must cost something: {pct:.3}%");
        assert!(pct < 25.0, "but not absurdly much: {pct:.3}%");
        // Hypervisor share of total cycles is small.
        let share = hv_stock.count() as f64 / (hv_stock.count() + guest.count()) as f64;
        assert!(share < 0.25, "hv share {share}");
    }

    #[test]
    fn overhead_percent_edge_cases() {
        assert_eq!(overhead_percent(100, 0), 0.0);
        assert!((overhead_percent(105, 100) - 5.0).abs() < 1e-9);
        assert!(overhead_percent(95, 100) < 0.0);
    }
}
