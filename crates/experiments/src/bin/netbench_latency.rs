//! **Section VII-B methodology** — measuring recovery latency as service
//! interruption seen by NetBench's external sender.
//!
//! The paper measures recovery latency by running NetBench (a 1 ms UDP
//! ping) in an AppVM and observing the gap in the reply stream at the
//! sender: all VMs are paused during recovery, so the longest inter-reply
//! gap is the recovery latency. This binary reproduces that measurement
//! end-to-end: boot, run, inject a fail-stop fault, recover with each
//! mechanism, and report the gap.

use nlh_core::{Microreboot, Microreset, RecoveryMechanism};
use nlh_experiments::{hr, netbench_reply_gap};
use nlh_hv::MachineConfig;
use nlh_sim::SimDuration;

fn main() {
    let opts = nlh_experiments::ExpOptions::from_args();
    println!("Recovery latency via NetBench service interruption (Section VII-B)");
    println!("(1AppVM NetBench, 1 ms pings, 8 GiB machine, 5 repetitions)");
    hr();
    println!("{:12} {:>16} {:>16}", "Mechanism", "Max reply gap", "Paper");
    hr();
    for (name, mech) in [
        (
            "NiLiHype",
            &Microreset::nilihype() as &dyn RecoveryMechanism,
        ),
        ("ReHype", &Microreboot::rehype() as &dyn RecoveryMechanism),
    ] {
        let mut worst = SimDuration::ZERO;
        let mut best = SimDuration::from_secs(3600);
        for r in 0..5 {
            let gap = netbench_reply_gap(MachineConfig::paper(), mech, opts.seed + r);
            worst = worst.max(gap);
            best = best.min(gap);
        }
        let paper = if name == "NiLiHype" {
            "22 ms"
        } else {
            "713 ms"
        };
        println!(
            "{:12} {:>10}..{:>4} {:>16}",
            name,
            format!("{best}"),
            format!("{worst}"),
            paper
        );
    }
    hr();
    println!("Paper: 22 ms (±1 ms) vs 713 ms (±10 ms): a >30x reduction in service");
    println!("interruption, low enough to be unnoticeable in most deployments.");
}
