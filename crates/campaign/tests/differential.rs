//! Differential determinism: warm-started trials are indistinguishable
//! from cold-booted ones, and the stepper fast path (pooled programs +
//! batched stepping) is indistinguishable from the per-step reference.
//!
//! The warm-start engine clones a cached post-boot template and re-derives
//! all RNG state from the trial seed. These properties pin the claim that
//! this changes *nothing*: across seeds, setups and fault types, the full
//! [`TrialResult`] — injection outcome, observations, recovery report
//! (every step, latency and repair count), final classification and step
//! count — is equal to what a cold boot produces.
//!
//! The second family pins the stepper fast path the same way: the
//! batched trial loop against the reference loop selected by
//! `TrialRunOptions { batched: false, .. }` (one checked `step_any` per
//! iteration — the pre-optimisation stepper, kept at runtime exactly for
//! this comparison).

use nlh_campaign::{
    build_system, run_trial_with, BenchKind, BootCache, SetupKind, TrialConfig, TrialResult,
    TrialRunOptions,
};
use nlh_core::{Enhancements, Microreboot, Microreset, RecoveryMechanism};
use nlh_inject::FaultType;
use proptest::prelude::*;

/// A trial on a freshly booted system.
fn cold_trial(cfg: &TrialConfig, mech: &dyn RecoveryMechanism) -> TrialResult {
    let (hv, layout) = build_system(cfg.machine.clone(), cfg.setup, cfg.seed);
    run_trial_with(hv, &layout, cfg, mech, TrialRunOptions::default()).0
}

/// A trial on a clone of the cache's post-boot template.
fn warm_trial(cfg: &TrialConfig, mech: &dyn RecoveryMechanism, cache: &BootCache) -> TrialResult {
    let (hv, layout) = cache.checkout(&cfg.machine, cfg.setup, cfg.seed);
    run_trial_with(hv, &layout, cfg, mech, TrialRunOptions::default()).0
}

fn setups() -> impl Strategy<Value = SetupKind> {
    prop_oneof![
        Just(SetupKind::OneAppVm(BenchKind::UnixBench)),
        Just(SetupKind::OneAppVm(BenchKind::BlkBench)),
        Just(SetupKind::OneAppVm(BenchKind::NetBench)),
        // An HVM AppVM: syscalls stay inside the guest.
        Just(SetupKind::OneHvmAppVm(BenchKind::UnixBench)),
        Just(SetupKind::ThreeAppVm),
        Just(SetupKind::TwoAppVmSharedCpu),
        // Credit-mode overcommit: the scheduler datapath (preemption
        // switches, WFI blocking, migrations) must be bit-identical under
        // batched/pooled stepping and warm starts too.
        Just(SetupKind::Overcommit(2)),
        Just(SetupKind::Overcommit(4)),
        // Virtio vswitch: descriptor-ring handlers and guest-to-guest
        // forwarding must survive superop fusion bit-for-bit too.
        Just(SetupKind::TwoAppVmVswitch),
    ]
}

fn faults() -> impl Strategy<Value = FaultType> {
    prop_oneof![
        Just(FaultType::Failstop),
        Just(FaultType::Register),
        Just(FaultType::Code),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// NiLiHype trials: warm == cold, bit for bit, across the whole
    /// configuration space.
    #[test]
    fn warm_equals_cold_nilihype(seed in 0u64..100_000, setup in setups(), fault in faults()) {
        let cache = BootCache::new();
        let mech = Microreset::nilihype();
        let cfg = TrialConfig::new(setup, fault, seed);
        let cold = cold_trial(&cfg, &mech);
        let warm = warm_trial(&cfg, &mech, &cache);
        prop_assert_eq!(cold, warm);
    }

    /// The equivalence holds for ReHype and for crippled mechanisms too —
    /// it is a property of the boot path, not of any one recovery flavor.
    #[test]
    fn warm_equals_cold_other_mechanisms(seed in 0u64..100_000, pick in 0u8..2) {
        let cache = BootCache::new();
        let mech: Box<dyn RecoveryMechanism> = match pick {
            0 => Box::new(Microreboot::rehype()),
            _ => Box::new(Microreset::with_enhancements(Enhancements::none())),
        };
        let cfg = TrialConfig::new(
            SetupKind::OneAppVm(BenchKind::UnixBench),
            FaultType::Failstop,
            seed,
        );
        let cold = cold_trial(&cfg, mech.as_ref());
        let warm = warm_trial(&cfg, mech.as_ref(), &cache);
        prop_assert_eq!(cold, warm);
    }

    /// A single cache checked out repeatedly stays pristine: later
    /// checkouts are unaffected by earlier trials having run (and mutated)
    /// their clones.
    #[test]
    fn cache_reuse_does_not_leak_state(seed in 0u64..100_000) {
        let cache = BootCache::new();
        let mech = Microreset::nilihype();
        let cfg = TrialConfig::new(
            SetupKind::OneAppVm(BenchKind::UnixBench),
            FaultType::Register,
            seed,
        );
        let first = warm_trial(&cfg, &mech, &cache);
        let second = warm_trial(&cfg, &mech, &cache);
        prop_assert_eq!(first, second);
    }

    /// The one batched loop == the one reference oracle, bit for bit. The
    /// fast side runs the batched loop with the injector as its stop rule
    /// (fused micro-op spans, bulk idle windows, unchecked steps); the
    /// reference side steps one checked micro-op at a time and feeds every
    /// step to the injector. Across every setup family (credit overcommit
    /// and the virtio vswitch included) and fault type, the full
    /// [`TrialResult`] must match (`steps` participates, so the two must
    /// execute identical step sequences, not merely reach the same
    /// classification), and so must the trial record (trigger, injection
    /// point, every event time) and the final machine's state digest.
    #[test]
    fn batched_equals_reference_stepper(
        seed in 0u64..100_000,
        setup in setups(),
        fault in faults(),
    ) {
        let mech = Microreset::nilihype();
        let cfg = TrialConfig::new(setup, fault, seed);
        let run = |batched| {
            let (hv, layout) = build_system(cfg.machine.clone(), cfg.setup, cfg.seed);
            let opts = TrialRunOptions {
                batched,
                ..TrialRunOptions::default()
            };
            let (result, record, hv) = run_trial_with(hv, &layout, &cfg, &mech, opts);
            (result, record, hv.state_digest())
        };
        let (fast, fast_record, fast_digest) = run(true);
        let (reference, ref_record, ref_digest) = run(false);
        prop_assert_eq!(fast, reference);
        prop_assert_eq!(fast_record, ref_record);
        prop_assert_eq!(fast_digest, ref_digest);
    }

    /// Same comparison at the hypervisor level, without the trial loop:
    /// batched stepping must leave the same final state digest, per-CPU
    /// clocks and step count as unbatched stepping. The digest covers
    /// every piece of simulated state, so the fast path may not diverge
    /// anywhere a later step could observe.
    #[test]
    fn batched_stepping_digests_identically(seed in 0u64..100_000, pick in 0u8..3) {
        let setup = match pick {
            0 => SetupKind::OneAppVm(BenchKind::UnixBench),
            1 => SetupKind::ThreeAppVm,
            _ => SetupKind::TwoAppVmSharedCpu,
        };
        let cfg = TrialConfig::new(setup, FaultType::Failstop, seed);
        let (mut fast, _) = build_system(cfg.machine.clone(), cfg.setup, cfg.seed);
        let (mut slow, _) = build_system(cfg.machine.clone(), cfg.setup, cfg.seed);
        let deadline = fast.now() + nlh_sim::SimDuration::from_millis(40);
        fast.run_until(deadline);
        slow.run_until_unbatched(deadline);
        prop_assert_eq!(fast.steps_executed(), slow.steps_executed());
        prop_assert_eq!(fast.now(), slow.now());
        prop_assert_eq!(fast.now_max(), slow.now_max());
        prop_assert_eq!(fast.state_digest(), slow.state_digest());
    }
}
