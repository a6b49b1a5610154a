//! A miniature fault-injection campaign: the workflow behind Figure 2.
//!
//! Run with: `cargo run --release --example fault_injection_campaign`

use nilihype::campaign::{CampaignEngine, CampaignSpec, NullSink, SetupKind};
use nilihype::inject::FaultType;

fn main() {
    println!("Running 3x60 fault-injection trials against NiLiHype (3AppVM setup)...");
    println!("(campaign_server runs the full Figure 2 grid from fig2.manifest)");
    println!();
    // One engine: the three campaigns share a single 3AppVM boot template.
    let engine = CampaignEngine::new();
    for fault in FaultType::ALL {
        let spec = CampaignSpec::new(format!("{fault}"), SetupKind::ThreeAppVm, fault, 60);
        let cell = engine.run_spec(&spec, &mut NullSink);
        let result = cell.sharded().expect("sharded cell");
        let (nm, sdc, det) = result.manifestation_breakdown();
        println!(
            "{:9} recovery {:>14}, noVMF {:>14}   [nm {:>5.1}%  sdc {:>4.1}%  det {:>5.1}%]",
            fault.to_string(),
            result.success_rate().to_string(),
            result.no_vmf_rate().to_string(),
            nm * 100.0,
            sdc * 100.0,
            det * 100.0
        );
        for (reason, n) in &result.failure_reasons {
            println!("          {n:>2} failures: {reason}");
        }
    }
}
