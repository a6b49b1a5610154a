//! **Ablation (Section IV / VII-C)** — non-idempotent-hypercall logging.
//!
//! The undo logging (plus code reordering) lifted the recovery rate from
//! 84% to 96% in the paper's 1AppVM fail-stop campaigns, and is also the
//! dominant source of normal-operation overhead (Figure 3's NiLiHype\*).
//! This binary measures the recovery-rate side of turning it off.

use nlh_campaign::{BenchKind, CampaignEngine, CampaignSpec, NullSink, SetupKind};
use nlh_core::{Enhancements, Microreset, RecoveryMechanism};
use nlh_experiments::{hr, pct, ExpOptions};
use nlh_inject::FaultType;

fn main() {
    let opts = ExpOptions::from_args();
    let trials = opts.count(400, 2000);
    let mut no_log = Enhancements::full();
    no_log.nonidem_mitigation = false;

    println!("Ablation: non-idempotent hypercall mitigation");
    println!("(1AppVM, UnixBench, fail-stop, {trials} trials)");
    hr();
    println!("{:44} {:>16}", "Configuration", "Recovery rate");
    hr();
    let engine = CampaignEngine::new();
    for (label, e) in [
        ("Undo logging + reordering (NiLiHype)", Enhancements::full()),
        ("Without the mitigation (NiLiHype*)", no_log),
    ] {
        let mut spec = CampaignSpec::new(
            label,
            SetupKind::OneAppVm(BenchKind::UnixBench),
            FaultType::Failstop,
            trials,
        );
        spec.seed = opts.seed;
        let make = || -> Box<dyn RecoveryMechanism> { Box::new(Microreset::with_enhancements(e)) };
        let cell = engine.run_spec_with(&spec, &make, &mut NullSink);
        let r = cell.sharded().expect("sharded cell");
        println!("{:44} {:>16}", label, pct(r.success_rate()));
    }
    hr();
    println!("Paper: turning the logging off reduces the recovery rate by ~12%");
    println!("(96% -> 84%) while removing most of the normal-operation overhead.");
}
