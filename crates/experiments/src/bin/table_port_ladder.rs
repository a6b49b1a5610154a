//! **Section IV (text)** — the ReHype x86-64 port ladder.
//!
//! The paper ports ReHype to x86-64 / Xen 4.3.2 and reports: initial port
//! 65% → (+ syscall retry, batched-hypercall retry, FS/GS save) 84% →
//! (+ non-idempotent mitigation) 96%, on 1AppVM fail-stop campaigns.

use nlh_campaign::{BenchKind, CampaignEngine, CampaignSpec, NullSink, SetupKind};
use nlh_core::{Microreboot, ReHypeConfig, RecoveryMechanism};
use nlh_experiments::{hr, pct, ExpOptions};
use nlh_inject::FaultType;

fn main() {
    let opts = ExpOptions::from_args();
    let trials = opts.count(300, 1000);
    let rungs: [(&str, ReHypeConfig, &str); 3] = [
        ("Initial x86-64 port", ReHypeConfig::initial_port(), "65%"),
        (
            "+ syscall retry, batched retry, save FS/GS",
            ReHypeConfig::port_plus_three(),
            "84%",
        ),
        (
            "+ non-idempotent hypercall mitigation",
            ReHypeConfig::full(),
            "96%",
        ),
    ];
    println!("Section IV: porting and enhancing ReHype (1AppVM, fail-stop, {trials} trials)");
    hr();
    println!("{:48} {:>14} {:>8}", "Configuration", "Measured", "Paper");
    hr();
    let engine = CampaignEngine::new();
    for (label, config, paper) in rungs {
        let mut spec = CampaignSpec::new(
            label,
            SetupKind::OneAppVm(BenchKind::UnixBench),
            FaultType::Failstop,
            trials,
        );
        spec.seed = opts.seed;
        let make = || -> Box<dyn RecoveryMechanism> { Box::new(Microreboot::with_config(config)) };
        let cell = engine.run_spec_with(&spec, &make, &mut NullSink);
        let r = cell.sharded().expect("sharded cell");
        println!("{:48} {:>14} {:>8}", label, pct(r.success_rate()), paper);
    }
    hr();
}
