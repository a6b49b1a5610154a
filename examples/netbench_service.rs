//! Service interruption seen by NetBench's external sender across a
//! recovery — the measurement behind the paper's 22 ms / 713 ms numbers.
//!
//! Run with: `cargo run --release --example netbench_service`

use nilihype::campaign::{build_system, BenchKind, SetupKind};
use nilihype::hv::MachineConfig;
use nilihype::recovery::{Microreboot, Microreset, RecoveryMechanism};
use nilihype::sim::{SimDuration, SimTime};

fn main() {
    for mech in [
        &Microreset::nilihype() as &dyn RecoveryMechanism,
        &Microreboot::rehype(),
    ] {
        let (mut hv, _) = build_system(
            MachineConfig::paper(),
            SetupKind::OneAppVm(BenchKind::NetBench),
            11,
        );
        hv.support = mech.op_support();
        hv.run_until(SimTime::from_secs(3));
        hv.raise_panic(nilihype::hv::CpuId(1), "injected fault");
        let report = mech.recover(&mut hv).expect("recovery runs");
        hv.run_until(SimTime::from_secs(6));

        let mut times: Vec<SimTime> = hv.net_replies.iter().map(|(_, t)| t).collect();
        times.sort_unstable();
        let max_gap = times
            .windows(2)
            .map(|w| w[1] - w[0])
            .max()
            .unwrap_or(SimDuration::ZERO);
        let drops = hv.net.as_ref().map(|n| n.drops).unwrap_or(0);
        println!(
            "{:9} recovery latency {:>9}; sender saw a {:>9} gap in replies, {} packets lost",
            report.mechanism,
            format!("{}", report.total),
            format!("{max_gap}"),
            drops
        );
    }
    println!();
    println!("The queued pings are all answered after the pause, so nothing is lost —");
    println!("but the interruption itself is 30x shorter with microreset.");
}
