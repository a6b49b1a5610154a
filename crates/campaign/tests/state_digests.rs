//! Pinned machine fingerprints: the exact [`Hypervisor::state_digest`] of
//! warm checkouts and of the final machines of a grid of trials.
//!
//! The digest renders every simulated field of the machine, so these
//! constants pin the representation-independent state of the boot
//! templates (page-frame table, scrub ledger, heap, scheduler, ...) and
//! every trial's end state. A change to how a subsystem *stores* its state
//! must leave them bit-identical; a change to what the machine *does*
//! shifts them and must be re-recorded on purpose (each assertion message
//! prints the actual value).
//!
//! [`Hypervisor::state_digest`]: nlh_hv::Hypervisor::state_digest

use nlh_campaign::{
    run_trial_with, BenchKind, BootCache, MechanismSpec, SetupKind, TrialConfig, TrialRunOptions,
};
use nlh_core::LadderRung;
use nlh_inject::FaultType;
use nlh_sim::digest::Fnv64;

/// The four setups the pins cover, with the digest of a seed-5 checkout.
const CHECKOUT_DIGESTS: [(SetupKind, u64); 4] = [
    (SetupKind::TwoAppVmVswitch, 0x4a1e86f7e4b12d32),
    (SetupKind::Overcommit(4), 0xae0301db8dcd5425),
    (
        SetupKind::OneAppVm(BenchKind::UnixBench),
        0x1d35e86511ade300,
    ),
    (SetupKind::ThreeAppVm, 0xd677bb28e9e661ef),
];

/// `Fnv64::write_u64` fold of the final-machine digests of the
/// setups x faults x mechanisms x seeds grid, nested in that order.
const TRIAL_GRID_DIGEST: u64 = 0x17f73aea6002954f;

#[test]
fn warm_checkout_digests_are_pinned() {
    let cache = BootCache::new();
    for (setup, expected) in CHECKOUT_DIGESTS {
        let config = TrialConfig::new(setup, FaultType::Failstop, 5);
        let (hv, _) = cache.checkout(&config.machine, setup, 5);
        let got = hv.state_digest();
        assert_eq!(
            got, expected,
            "{setup:?}: seed-5 checkout digest {got:#018x}"
        );
    }
}

#[test]
fn trial_grid_final_digests_are_pinned() {
    let cache = BootCache::new();
    let mechanisms = [
        MechanismSpec::nilihype(),
        MechanismSpec::rehype(),
        MechanismSpec::rung(LadderRung::Basic),
    ];
    let mut fold = Fnv64::new();
    let mut trials = 0;
    for (setup, _) in CHECKOUT_DIGESTS {
        for fault in FaultType::ALL {
            for spec in &mechanisms {
                let mechanism = spec.build();
                for seed in 2018..2024 {
                    let config = TrialConfig::new(setup, fault, seed);
                    let (hv, layout) = cache.checkout(&config.machine, setup, seed);
                    let (_, _, hv) = run_trial_with(
                        hv,
                        &layout,
                        &config,
                        mechanism.as_ref(),
                        TrialRunOptions::default(),
                    );
                    fold.write_u64(hv.state_digest());
                    trials += 1;
                }
            }
        }
    }
    assert_eq!(trials, 216);
    assert_eq!(
        fold.finish(),
        TRIAL_GRID_DIGEST,
        "final-machine digest fold {:#018x}",
        fold.finish()
    );
}
