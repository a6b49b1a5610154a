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
    build_system, run_trial_with, BenchKind, BootCache, SetupKind, SystemLayout, TrialConfig,
    TrialResult, TrialRunOptions,
};
use nlh_core::{Enhancements, Microreboot, Microreset, RecoveryMechanism};
use nlh_hv::Hypervisor;
use nlh_inject::FaultType;
use proptest::prelude::*;

/// Runs the trial body on `hv`, batched or through the reference loop.
fn trial_on(
    hv: Hypervisor,
    layout: &SystemLayout,
    cfg: &TrialConfig,
    mech: &dyn RecoveryMechanism,
    batched: bool,
) -> TrialResult {
    let opts = TrialRunOptions {
        batched,
        ..TrialRunOptions::default()
    };
    run_trial_with(hv, layout, cfg, mech, opts).0
}

/// A trial on a freshly booted system.
fn cold_trial(cfg: &TrialConfig, mech: &dyn RecoveryMechanism) -> TrialResult {
    let (hv, layout) = build_system(cfg.machine.clone(), cfg.setup, cfg.seed);
    trial_on(hv, &layout, cfg, mech, true)
}

/// A trial on a clone of the cache's post-boot template.
fn warm_trial(cfg: &TrialConfig, mech: &dyn RecoveryMechanism, cache: &BootCache) -> TrialResult {
    let (hv, layout) = cache.checkout(&cfg.machine, cfg.setup, cfg.seed);
    trial_on(hv, &layout, cfg, mech, true)
}

fn setups() -> impl Strategy<Value = SetupKind> {
    prop_oneof![
        Just(SetupKind::OneAppVm(BenchKind::UnixBench)),
        Just(SetupKind::OneAppVm(BenchKind::BlkBench)),
        Just(SetupKind::OneAppVm(BenchKind::NetBench)),
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

    /// Stepper fast path == reference stepper, bit for bit. The fast side
    /// runs batched stepping; the reference side steps one checked
    /// micro-op at a time. `TrialResult::steps` participates in the
    /// equality, so the two must execute identical step sequences — not
    /// merely reach the same classification.
    #[test]
    fn batched_equals_reference_stepper(
        seed in 0u64..100_000,
        setup in setups(),
        fault in faults(),
    ) {
        let mech = Microreset::nilihype();
        let cfg = TrialConfig::new(setup, fault, seed);
        let (fast_hv, layout) = build_system(cfg.machine.clone(), cfg.setup, cfg.seed);
        let (ref_hv, _) = build_system(cfg.machine.clone(), cfg.setup, cfg.seed);
        let fast = trial_on(fast_hv, &layout, &cfg, &mech, true);
        let reference = trial_on(ref_hv, &layout, &cfg, &mech, false);
        prop_assert_eq!(fast, reference);
    }

    /// Superop dispatch three ways: fused (superops on, the default),
    /// unfused batched (superops off — every micro-op through the single
    /// dispatch), and the per-step reference loop, all producing the same
    /// full [`TrialResult`] across every setup family (including credit
    /// overcommit and the virtio vswitch) and fault type. `steps`
    /// participates in the equality, so fused runs, bulk idle windows and
    /// the batched counting window must execute — and count — the exact
    /// reference step sequence.
    #[test]
    fn superops_equal_unfused_and_reference(
        seed in 0u64..100_000,
        setup in setups(),
        fault in faults(),
    ) {
        let mech = Microreset::nilihype();
        let cfg = TrialConfig::new(setup, fault, seed);
        let (fused_hv, layout) = build_system(cfg.machine.clone(), cfg.setup, cfg.seed);
        let (mut plain_hv, _) = build_system(cfg.machine.clone(), cfg.setup, cfg.seed);
        plain_hv.superops = false;
        let (mut ref_hv, _) = build_system(cfg.machine.clone(), cfg.setup, cfg.seed);
        ref_hv.superops = false;
        let fused = trial_on(fused_hv, &layout, &cfg, &mech, true);
        let plain = trial_on(plain_hv, &layout, &cfg, &mech, true);
        let reference = trial_on(ref_hv, &layout, &cfg, &mech, false);
        prop_assert_eq!(&fused, &plain);
        prop_assert_eq!(fused, reference);
    }

    /// Same comparison at the hypervisor level with tracing wide open:
    /// batched stepping must leave identical traces, per-CPU clocks and
    /// step counts as unbatched stepping.
    /// (Trial loops never see intermediate states, so this closes the gap:
    /// the fast path may not even *transiently* diverge in anything the
    /// trace ring can observe.)
    #[test]
    fn batched_stepping_traces_identically(seed in 0u64..100_000, pick in 0u8..3) {
        use nlh_sim::trace::{TraceLevel, TraceRing};
        let setup = match pick {
            0 => SetupKind::OneAppVm(BenchKind::UnixBench),
            1 => SetupKind::ThreeAppVm,
            _ => SetupKind::TwoAppVmSharedCpu,
        };
        let cfg = TrialConfig::new(setup, FaultType::Failstop, seed);
        let (mut fast, _) = build_system(cfg.machine.clone(), cfg.setup, cfg.seed);
        let (mut slow, _) = build_system(cfg.machine.clone(), cfg.setup, cfg.seed);
        fast.trace = TraceRing::new(4096, TraceLevel::Debug);
        slow.trace = TraceRing::new(4096, TraceLevel::Debug);
        let deadline = fast.now() + nlh_sim::SimDuration::from_millis(40);
        fast.run_until(deadline);
        slow.run_until_unbatched(deadline);
        prop_assert_eq!(fast.steps_executed(), slow.steps_executed());
        prop_assert_eq!(fast.now(), slow.now());
        prop_assert_eq!(fast.now_max(), slow.now_max());
        prop_assert_eq!(fast.trace.dump(), slow.trace.dump());
    }
}
