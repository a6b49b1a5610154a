//! **Extension (Section II-B design space)** — the three component-level
//! recovery designs side by side:
//!
//! * **Microreset** (NiLiHype): discard threads, repair in place.
//! * **Checkpoint rollback**: restore a post-boot memory checkpoint, then
//!   re-integrate preserved state (the variant the paper discusses as a
//!   faster microreboot: "even in this case, there would be significant
//!   latency for reintegrating state").
//! * **Microreboot** (ReHype): boot a new instance, then re-integrate.
//!
//! For each: recovery rate under Register faults (the state-corrupting
//! type where the cleansing power of rollback/reboot matters) and recovery
//! latency on the paper's 8 GiB machine.

use nlh_campaign::{
    CampaignEngine, CampaignResult, CampaignSpec, MechanismSpec, NullSink, SetupKind,
};
use nlh_core::{CheckpointRestore, Microreboot, Microreset, RecoveryMechanism};
use nlh_experiments::{hr, pct, ExpOptions};
use nlh_hv::{CpuId, Hypervisor, MachineConfig};
use nlh_inject::FaultType;

fn latency(mech: &dyn RecoveryMechanism) -> nlh_sim::SimDuration {
    let mut hv = Hypervisor::new(MachineConfig::paper(), 1);
    hv.raise_panic(CpuId(0), "latency probe");
    mech.recover(&mut hv).expect("recovery runs").total
}

fn main() {
    let opts = ExpOptions::from_args();
    let trials = opts.count(400, 2000);
    println!(
        "The component-level-recovery design space (3AppVM, Register faults, {trials} trials)"
    );
    hr();
    println!(
        "{:34} {:>16} {:>18}",
        "Mechanism", "Recovery rate", "Latency (8 GiB)"
    );
    hr();

    let engine = CampaignEngine::new();
    let mut spec = CampaignSpec::new(
        "design-space",
        SetupKind::ThreeAppVm,
        FaultType::Register,
        trials,
    );
    spec.seed = opts.seed;
    let run = |make: &(dyn Fn() -> Box<dyn RecoveryMechanism> + Sync)| -> CampaignResult {
        let cell = engine.run_spec_with(&spec, make, &mut NullSink);
        cell.sharded().expect("sharded cell").clone()
    };

    let reset_rate = run(&|| MechanismSpec::Nilihype.build());
    println!(
        "{:34} {:>16} {:>16}ms",
        "Microreset (NiLiHype)",
        pct(reset_rate.success_rate()),
        latency(&Microreset::nilihype()).as_millis()
    );

    let ckpt_rate = run(&|| Box::new(CheckpointRestore::new()));
    println!(
        "{:34} {:>16} {:>16}ms",
        "Checkpoint rollback (Section II-B)",
        pct(ckpt_rate.success_rate()),
        latency(&CheckpointRestore::new()).as_millis()
    );

    let reboot_rate = run(&|| MechanismSpec::Rehype.build());
    println!(
        "{:34} {:>16} {:>16}ms",
        "Microreboot (ReHype)",
        pct(reboot_rate.success_rate()),
        latency(&Microreboot::rehype()).as_millis()
    );
    hr();
    println!("The paper's argument in one table: rollback/reboot buy a small amount of");
    println!("state cleansing (Register/Code faults only) at 15-30x the latency, which");
    println!("is why microreset is the attractive point in the design space.");
}
