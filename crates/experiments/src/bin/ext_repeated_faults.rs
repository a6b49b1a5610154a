//! **Extension** — back-to-back recovery: how many *successive* hypervisor
//! failures can NiLiHype absorb in one run?
//!
//! The paper's campaigns inject exactly one fault per run. Since microreset
//! keeps the hypervisor instance alive, nothing in principle prevents it
//! from recovering repeatedly (the "nine lives" in the name). This
//! extension arms the Gigan-style trigger once every 2 s of a long
//! UnixBench run — each fault lands mid-hypervisor-execution like the
//! paper's — and reports the survival curve.

use nlh_campaign::{build_system, BenchKind, SetupKind};
use nlh_core::{Microreset, RecoveryMechanism};
use nlh_experiments::{hr, ExpOptions};
use nlh_hv::MachineConfig;
use nlh_inject::{FaultType, Injector};
use nlh_sim::{SimDuration, SimTime};

/// Runs one trial with `n_faults` fail-stops ~2 s apart; returns how many
/// were successfully recovered before the first unrecovered failure.
fn survival(seed: u64, n_faults: u32) -> u32 {
    let mech = Microreset::nilihype();
    let (mut hv, _) = build_system(
        MachineConfig::small(),
        SetupKind::OneAppVm(BenchKind::UnixBench),
        seed,
    );
    hv.support = mech.op_support();
    for k in 0..n_faults {
        let window_start = SimTime::from_secs(1) + SimDuration::from_secs(2) * u64::from(k);
        let window = (window_start, window_start + SimDuration::from_millis(500));
        let mut inj = Injector::new(
            FaultType::Failstop,
            seed ^ u64::from(k) << 32,
            window,
            2_000,
        );
        let settle_end = window.1 + SimDuration::from_secs(1);
        // Run to the injection (a fail-stop fault is detected on the
        // spot) or through the settling period.
        inj.run_until(&mut hv, settle_end);
        match hv.detection() {
            Some(_) => {
                if mech.recover(&mut hv).is_err() {
                    return k;
                }
                // Recovery must hold through the settling period.
                hv.run_until(settle_end);
                if hv.detection().is_some() {
                    return k;
                }
                // The AppVM must still be making progress (not stuck).
                let dom = &hv.domains[1];
                if !dom.is_active() || dom.pending.as_ref().map(|p| !p.will_retry).unwrap_or(false)
                {
                    return k;
                }
            }
            None => unreachable!("failstop faults are always detected"),
        }
    }
    n_faults
}

fn main() {
    let opts = ExpOptions::from_args();
    let trials = opts.count(100, 400);
    let n_faults = 8u32;
    println!("Extension: back-to-back microreset recoveries");
    println!("(one fail-stop every ~2 s, up to {n_faults} faults per run, {trials} runs)");
    hr();
    let mut survived_through = vec![0u64; n_faults as usize + 1];
    for i in 0..trials {
        let k = survival(opts.seed + i, n_faults) as usize;
        for counter in survived_through.iter_mut().take(k + 1).skip(1) {
            *counter += 1;
        }
    }
    println!("{:>8} {:>22}", "Faults", "Runs still healthy");
    hr();
    for (k, survived) in survived_through.iter().enumerate().skip(1) {
        println!(
            "{:>8} {:>14} ({:>5.1}%)",
            k,
            survived,
            *survived as f64 / trials as f64 * 100.0
        );
    }
    hr();
    println!("With a per-recovery success rate p, k successive recoveries succeed with");
    println!("probability ~p^k; the curve above should track that geometric decay.");
}
