//! **Ablation (Section III-C design choice)** — discard *all* execution
//! threads vs discard only the faulting CPU's thread.
//!
//! The paper argues (without implementing it) that discarding only the
//! faulting thread would be more complex and yield a lower recovery rate,
//! because surviving threads interact badly with the recovery process:
//! recovery releases locks they hold, rewrites scheduler metadata they are
//! mid-way through updating, and undoes side effects they have not yet
//! committed. Both policies are implemented here, so the claim can be
//! measured.

use nlh_campaign::{BenchKind, CampaignEngine, CampaignSpec, NullSink, SetupKind};
use nlh_core::{DiscardPolicy, Microreset, RecoveryMechanism};
use nlh_experiments::{hr, pct, ExpOptions};
use nlh_inject::FaultType;

fn main() {
    let opts = ExpOptions::from_args();
    let trials = opts.count(300, 1000);
    println!("Ablation: discard policy (1AppVM, UnixBench, fail-stop, {trials} trials)");
    hr();
    println!("{:40} {:>16}", "Policy", "Recovery rate");
    hr();
    let engine = CampaignEngine::new();
    for (label, policy) in [
        ("Discard all threads (NiLiHype)", DiscardPolicy::AllThreads),
        (
            "Discard faulting thread only",
            DiscardPolicy::FaultingThreadOnly,
        ),
    ] {
        let mut spec = CampaignSpec::new(
            label,
            SetupKind::OneAppVm(BenchKind::UnixBench),
            FaultType::Failstop,
            trials,
        );
        spec.seed = opts.seed;
        let make = || -> Box<dyn RecoveryMechanism> {
            Box::new(Microreset::nilihype().with_policy(policy))
        };
        let cell = engine.run_spec_with(&spec, &make, &mut NullSink);
        let r = cell.sharded().expect("sharded cell");
        println!("{:40} {:>16}", label, pct(r.success_rate()));
    }
    hr();
    println!("Expected: discarding all threads wins, confirming the paper's design");
    println!("choice — surviving threads trip over recovery's global-state repairs.");
}
