//! **Section VII-B (text)** — recovery-latency scaling with memory size.
//!
//! The paper notes that NiLiHype's dominant recovery step — the page-frame
//! consistency scan — is proportional to host memory (21 ms at 8 GB), which
//! "would be a problem in a large system with tens or hundreds of GB". This
//! binary sweeps memory size and prints the recovery latency of the three
//! designs (microreset, checkpoint rollback, microreboot), plus NiLiHype
//! without the scan (which the paper says costs ~4% of recovery rate).

use nlh_core::MechanismSpec;
use nlh_experiments::hr;
use nlh_hv::{Hypervisor, MachineConfig};

/// The columns, by mechanism spelling: the three designs plus NiLiHype
/// without the page-frame scan.
const COLUMNS: [&str; 4] = [
    "NiLiHype",
    "NiLiHype(-pfd_scan)",
    "CheckpointRestore",
    "ReHype",
];

/// The simulated recovery latency of the mechanism `spelling` names.
fn recover_total(machine: MachineConfig, spelling: &str) -> nlh_sim::SimDuration {
    let mech = MechanismSpec::parse(spelling).expect("a mechanism spelling");
    let mut hv = Hypervisor::new(machine, 2018);
    hv.raise_panic(nlh_sim::CpuId(0), "fault");
    mech.build().recover(&mut hv).expect("recovery runs").total
}

fn main() {
    let _ = nlh_experiments::ExpOptions::from_args();
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
            let ms = recover_total(machine.clone(), spelling).as_millis();
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
