//! **Figure 2** — successful recovery rate of NiLiHype vs ReHype with the
//! 3AppVM setup (Section VII-A), plus the per-fault-type manifestation
//! breakdown reported in the same section.
//!
//! Paper campaign sizes: 1000 Failstop, 5000 Register, 2000 Code faults
//! (chosen so the 95% confidence interval is within ±2%).
//!
//! All six campaigns (two mechanisms × three fault types) run on one
//! resident [`CampaignEngine`], sharing a single 3AppVM boot template
//! instead of building one per campaign.

use nlh_campaign::{
    CampaignEngine, CampaignResult, CampaignSpec, MechanismSpec, NullSink, SetupKind,
};
use nlh_experiments::{hr, pct, print_latency, print_throughput, ExpOptions};
use nlh_inject::FaultType;

fn run_cell(
    engine: &CampaignEngine,
    opts: &ExpOptions,
    fault: FaultType,
    trials: u64,
    mechanism: MechanismSpec,
) -> CampaignResult {
    let mut spec = CampaignSpec::new(
        format!("fig2-{}-{fault}", mechanism.name()),
        SetupKind::ThreeAppVm,
        fault,
        trials,
    );
    spec.seed = opts.seed;
    spec.mechanism = mechanism;
    engine
        .run_spec(&spec, &mut NullSink)
        .sharded()
        .expect("sharded cell")
        .clone()
}

fn main() {
    let opts = ExpOptions::from_args();
    let engine = CampaignEngine::new();
    println!("Figure 2: successful recovery rate, 3AppVM setup");
    println!("(UnixBench + NetBench; BlkBench VM created after recovery)");
    hr();
    println!(
        "{:10} {:>18} {:>18} {:>18} {:>18}",
        "Fault", "NiLiHype Success", "NiLiHype noVMF", "ReHype Success", "ReHype noVMF"
    );
    hr();
    let mut breakdowns = Vec::new();
    for fault in FaultType::ALL {
        let trials = match fault {
            FaultType::Failstop => opts.count(200, 1000),
            FaultType::Register => opts.count(500, 5000),
            FaultType::Code => opts.count(300, 2000),
        };
        let ni = run_cell(&engine, &opts, fault, trials, MechanismSpec::nilihype());
        let re = run_cell(&engine, &opts, fault, trials, MechanismSpec::rehype());
        println!(
            "{:10} {:>18} {:>18} {:>18} {:>18}",
            fault.to_string(),
            pct(ni.success_rate()),
            pct(ni.no_vmf_rate()),
            pct(re.success_rate()),
            pct(re.no_vmf_rate()),
        );
        breakdowns.push((
            fault,
            ni.manifestation_breakdown(),
            trials,
            ni.telemetry.clone(),
        ));
    }
    hr();
    println!("Paper: Failstop essentially identical (~96%); Register ~88.9% vs ~90.6%;");
    println!("Code lowest (~84% vs ~86%); noVMF above 83% overall.");
    println!();
    println!("Injection-outcome breakdown (Section VII-A):");
    hr();
    println!(
        "{:10} {:>16} {:>10} {:>10} {:>8}",
        "Fault", "Non-manifested", "SDC", "Detected", "Trials"
    );
    hr();
    for (fault, (nm, sdc, det), trials, _) in &breakdowns {
        println!(
            "{:10} {:>15.1}% {:>9.1}% {:>9.1}% {:>8}",
            fault.to_string(),
            nm * 100.0,
            sdc * 100.0,
            det * 100.0,
            trials
        );
    }
    hr();
    println!("Paper: Register 74.8 / 5.6 / 19.6; Code 35.0 / 12.1 / 52.9; Failstop all detected.");
    println!();
    println!("Campaign engine telemetry (NiLiHype campaigns):");
    for (fault, _, _, telemetry) in &breakdowns {
        print_throughput(&fault.to_string(), telemetry);
    }
    if let Some((fault, _, _, telemetry)) = breakdowns.first() {
        print_latency(&fault.to_string(), telemetry);
    }
}
