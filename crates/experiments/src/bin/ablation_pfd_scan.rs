//! **Ablation (Section VII-B)** — the page-frame consistency scan.
//!
//! The scan dominates NiLiHype's recovery latency (21 of 22 ms at 8 GB);
//! the paper notes that skipping it saves the latency at the cost of ~4%
//! of recovery rate. This binary measures both sides of the trade-off.

use nlh_campaign::{CampaignEngine, CampaignSpec, NullSink, SetupKind};
use nlh_core::{Enhancements, Microreset, RecoveryMechanism};
use nlh_experiments::{hr, pct, ExpOptions};
use nlh_hv::{Hypervisor, MachineConfig};
use nlh_inject::FaultType;

fn main() {
    let opts = ExpOptions::from_args();
    let trials = opts.count(400, 2000);
    let mut no_scan = Enhancements::full();
    no_scan.pfd_scan = false;

    println!("Ablation: page-frame consistency scan (3AppVM, Register faults, {trials} trials)");
    hr();
    println!(
        "{:28} {:>16} {:>22}",
        "Configuration", "Recovery rate", "Latency (8 GiB)"
    );
    hr();
    let engine = CampaignEngine::new();
    for (label, e) in [
        ("With scan", Enhancements::full()),
        ("Without scan", no_scan),
    ] {
        let mut spec = CampaignSpec::new(label, SetupKind::ThreeAppVm, FaultType::Register, trials);
        spec.seed = opts.seed;
        let make = || -> Box<dyn RecoveryMechanism> { Box::new(Microreset::with_enhancements(e)) };
        let cell = engine.run_spec_with(&spec, &make, &mut NullSink);
        let r = cell.sharded().expect("sharded cell");
        let mut hv = Hypervisor::new(MachineConfig::paper(), opts.seed);
        hv.raise_panic(nlh_sim::CpuId(0), "fault");
        let latency = Microreset::with_enhancements(e)
            .recover(&mut hv)
            .expect("recovery runs")
            .total;
        println!(
            "{:28} {:>16} {:>20}ms",
            label,
            pct(r.success_rate()),
            latency.as_millis()
        );
    }
    hr();
    println!("Paper: skipping the scan cuts the 21 ms but costs ~4% recovery rate.");
}
