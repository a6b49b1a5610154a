//! **Tables II and III, and the Section VII-B memory sweep** — recovery
//! latency.
//!
//! Performs a ReHype and a NiLiHype recovery on the paper's machine
//! configuration (8 CPUs, 8 GB) and prints every step that takes at least
//! 1 ms, exactly as the paper's tables do (Table II: 713 ms; Table III:
//! page-frame consistency 21 ms + 1 ms others = 22 ms), then the ratio
//! (paper: over 30×).
//!
//! The paper notes that NiLiHype's dominant recovery step — the page-frame
//! consistency scan — is proportional to host memory, which "would be a
//! problem in a large system with tens or hundreds of GB". The last table
//! sweeps memory size and prints the recovery latency of the three designs
//! (microreset, checkpoint rollback, microreboot), plus NiLiHype without
//! the scan (which the paper says costs ~4% of recovery rate).

use nlh_core::{MechanismSpec, RecoveryReport};
use nlh_experiments::hr;
use nlh_hv::{Hypervisor, MachineConfig};
use nlh_sim::SimDuration;

/// The memory-sweep columns, by mechanism spelling: the three designs plus
/// NiLiHype without the page-frame scan.
const COLUMNS: [&str; 4] = [
    "NiLiHype",
    "NiLiHype(-pfd_scan)",
    "CheckpointRestore",
    "ReHype",
];

/// The recovery report of the mechanism `spelling` names, after a panic on
/// `machine`.
fn recover(machine: MachineConfig, spelling: &str) -> RecoveryReport {
    let mech = MechanismSpec::parse(spelling).expect("a mechanism spelling");
    let mut hv = Hypervisor::new(machine, 2018);
    hv.raise_panic(nlh_sim::CpuId(0), "injected fault for latency measurement");
    mech.build().recover(&mut hv).expect("recovery runs")
}

/// Prints `report`'s steps of at least 1 ms, the sum of the rest under
/// `rest`, and the total.
fn print_breakdown(title: &str, report: &RecoveryReport, rest: &str) {
    println!("{title}");
    hr();
    println!("{:62} {:>10}", "Operation", "Time");
    hr();
    for step in report.steps_at_least(SimDuration::from_millis(1)) {
        println!("{:62} {:>7}ms", step.name, step.duration.as_millis());
    }
    let small: SimDuration = report
        .steps
        .iter()
        .filter(|s| s.duration < SimDuration::from_millis(1))
        .fold(SimDuration::ZERO, |a, s| a + s.duration);
    println!("{:62} {:>8.2}ms", rest, small.as_millis_f64());
    hr();
    println!("{:62} {:>7}ms", "Total", report.total.as_millis());
}

fn main() {
    let _ = nlh_experiments::ExpOptions::from_args();
    let re = recover(MachineConfig::paper(), "ReHype");
    print_breakdown(
        "Table II: recovery latency breakdown of ReHype (8 CPUs, 8 GiB)",
        &re,
        "(steps under 1 ms)",
    );
    println!();
    println!("Paper: hardware init 412 ms + memory init 266 ms + misc 35 ms = 713 ms.");
    println!();

    let ni = recover(MachineConfig::paper(), "NiLiHype");
    print_breakdown(
        "Table III: recovery latency breakdown of NiLiHype (8 CPUs, 8 GiB)",
        &ni,
        "Others",
    );
    println!();
    println!(
        "NiLiHype {} vs ReHype {} -> {:.1}x faster (paper: 22 ms vs 713 ms, >30x)",
        ni.total,
        re.total,
        re.total.as_nanos() as f64 / ni.total.as_nanos() as f64
    );
    println!();

    println!("Recovery latency vs host memory size (Section VII-B discussion)");
    hr();
    print!("{:>8}", "Memory");
    for name in COLUMNS {
        print!(" {name:>19}");
    }
    println!();
    hr();
    for gib in [2u64, 4, 8, 16, 32, 64] {
        let machine = MachineConfig {
            num_cpus: 8,
            memory_mib: gib * 1024,
            cpu_freq_mhz: 2_500,
        };
        print!("{gib:>6}GB");
        for spelling in COLUMNS {
            let ms = recover(machine.clone(), spelling).total.as_millis();
            print!(" {:>19}", format!("{ms}ms"));
        }
        println!();
    }
    hr();
    println!("Paper: 8 GB -> 21 ms of NiLiHype's 22 ms is the scan; skipping it trades");
    println!("~4% of recovery rate for the latency (the pfd-scan cells of");
    println!("ablations.manifest). Checkpoint rollback skips the hardware re-init but");
    println!("still pays for re-integrating state (Section II-B).");
}
