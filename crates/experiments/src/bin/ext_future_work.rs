//! **Extensions (Section IX, future work)** — the configurations the paper
//! names as future work, evaluated on this reproduction:
//!
//! 1. **Multiple vCPUs per CPU**: two AppVMs whose vCPUs share one physical
//!    CPU, round-robined by the scheduler tick.
//! 2. **HVM AppVMs**: fully hardware-virtualized guests, whose syscalls do
//!    not trap through the hypervisor (the paper cites prior work finding
//!    HVM fault-injection results "very similar" to PV ones).

use nlh_campaign::{build_system, BenchKind, CampaignEngine, CampaignSpec, NullSink, SetupKind};
use nlh_core::{Microreset, RecoveryMechanism};
use nlh_experiments::{hr, pct, ExpOptions};
use nlh_hv::domain::{DomainKind, DomainSpec};
use nlh_hv::{CpuId, MachineConfig};
use nlh_inject::{FaultType, Injector};
use nlh_sim::SimTime;
use nlh_workloads::UnixBench;

/// One fail-stop trial against an HVM (or PV) UnixBench AppVM; returns
/// whether recovery succeeded with no VM affected.
fn hvm_trial(hvm: bool, seed: u64) -> bool {
    let mech = Microreset::nilihype();
    let setup = SetupKind::OneAppVm(BenchKind::UnixBench);
    let (mut hv, _) = build_system(MachineConfig::small(), setup, seed);
    if hvm {
        // Swap the PV AppVM for an HVM one on CPU 2.
        hv.domains[1].state = nlh_hv::domain::DomainState::Destroyed;
        hv.sched.offline_vcpus(&[hv.domains[1].vcpu]);
        hv.add_boot_domain(DomainSpec {
            kind: DomainKind::AppHvm,
            pages: 192,
            pinned_cpu: CpuId(2),
            program: Box::new(UnixBench::new(
                seed ^ 0xA1,
                setup.bench_duration(),
                hv.tuning.tls_sensitivity,
            )),
        });
    }
    hv.support = mech.op_support();
    let mut inj = Injector::new(
        FaultType::Failstop,
        seed.wrapping_mul(0x9E3779B97F4A7C15) ^ 0xF00D,
        setup.trigger_window(),
        2_000,
    );
    let end = SimTime::ZERO + setup.trial_duration();
    let mut recovered = false;
    while hv.now() < end {
        if hv.detection().is_some() {
            if recovered {
                return false;
            }
            recovered = true;
            if mech.recover(&mut hv).is_err() {
                return false;
            }
        } else {
            let (cpu, out) = hv.step_any();
            inj.on_step(&mut hv, cpu, out);
        }
    }
    let app = hv.domains.last().unwrap();
    let deadline = end;
    recovered
        && hv.detection().is_none()
        && app.verdict(end, deadline).is_ok()
        && hv.domains[0].pending.is_none()
        && hv.domains[0].is_active()
}

fn main() {
    let opts = ExpOptions::from_args();
    let trials = opts.count(200, 1000);

    println!("Extension 1: multiple vCPUs per CPU (fail-stop, {trials} trials)");
    hr();
    let engine = CampaignEngine::new();
    for (label, setup) in [
        ("vCPUs pinned 1:1 (3AppVM)", SetupKind::ThreeAppVm),
        ("two vCPUs sharing one CPU", SetupKind::TwoAppVmSharedCpu),
    ] {
        let mut spec = CampaignSpec::new(label, setup, FaultType::Failstop, trials);
        spec.seed = opts.seed;
        let cell = engine.run_spec(&spec, &mut NullSink);
        let r = cell.sharded().expect("sharded cell");
        println!("{:44} {:>16}", label, pct(r.success_rate()));
    }
    println!();

    println!("Extension 2: HVM vs PV AppVM (1AppVM UnixBench, fail-stop, {trials} trials)");
    hr();
    for hvm in [false, true] {
        let ok = (0..trials)
            .filter(|i| hvm_trial(hvm, opts.seed + i))
            .count() as u64;
        let label = if hvm { "HVM AppVM" } else { "PV AppVM" };
        println!(
            "{:44} {:>16}",
            label,
            pct(nlh_sim::stats::Proportion::new(ok, trials))
        );
    }
    hr();
    println!("Paper (Section VI-A): HVM fault-injection results are very similar to PV;");
    println!("Section IX lists multiple vCPUs per CPU as future evaluation work.");
}
