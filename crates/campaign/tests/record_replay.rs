//! Record-then-replay determinism: every trial's event record is enough to
//! reproduce the trial bit for bit.
//!
//! [`run_trial_with`] logs the trial's seed, config key, steered
//! trigger range and injection point. These properties pin the claim that
//! the record is *complete*: parsing the record back from its text form and
//! replaying it from a [`BootCache`] snapshot reproduces the full
//! [`TrialResult`] — injection outcome, observations, recovery report,
//! classification and exact step count — and, with tracing wide open, an
//! identical `Debug`-level trace dump. Nothing the trial did escaped the
//! record.

use nlh_campaign::{
    bisect_trials, run_trial_with, BenchKind, BootCache, SetupKind, TrialConfig, TrialRecord,
    TrialResult, TrialRunOptions,
};
use nlh_core::{Microreset, RecoveryMechanism};
use nlh_inject::FaultType;
use nlh_sim::trace::{TraceLevel, TraceRing};
use proptest::prelude::*;

/// A warm-started trial with default options and its event record.
fn recorded_trial(
    cfg: &TrialConfig,
    mech: &dyn RecoveryMechanism,
    cache: &BootCache,
) -> (TrialResult, TrialRecord) {
    let (hv, layout) = cache.checkout(&cfg.machine, cfg.setup, cfg.seed);
    let (result, record, _) = run_trial_with(hv, &layout, cfg, mech, TrialRunOptions::default());
    (result, record)
}

fn setups() -> impl Strategy<Value = SetupKind> {
    prop_oneof![
        Just(SetupKind::OneAppVm(BenchKind::UnixBench)),
        Just(SetupKind::OneAppVm(BenchKind::BlkBench)),
        Just(SetupKind::OneAppVm(BenchKind::NetBench)),
        Just(SetupKind::ThreeAppVm),
        Just(SetupKind::TwoAppVmSharedCpu),
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

    /// Record → text → parse → replay reproduces the original
    /// [`TrialResult`] bit for bit, across the whole configuration space.
    /// The replay goes through the text form deliberately: what CI replays
    /// from a checked-in log is exactly what this property exercises.
    #[test]
    fn recorded_trials_replay_bit_identically(
        seed in 0u64..100_000,
        setup in setups(),
        fault in faults(),
    ) {
        let cache = BootCache::new();
        let mech = Microreset::nilihype();
        let cfg = TrialConfig::new(setup, fault, seed);
        let (original, record) = recorded_trial(&cfg, &mech, &cache);

        let text = record.to_text();
        let parsed = TrialRecord::from_text(&text);
        prop_assert!(parsed.is_ok(), "record does not parse: {:?}", parsed.err());
        let parsed = parsed.unwrap();
        prop_assert_eq!(&parsed, &record, "text round trip is lossy");

        let replayed = parsed.replay(&mech, &cache);
        prop_assert!(replayed.is_ok(), "replay diverged: {:?}", replayed.err());
        prop_assert_eq!(original, replayed.unwrap());
    }

    /// Same property at the trace level: a replay steered by the record's
    /// trigger range leaves a `Debug`-level trace dump identical to the
    /// original run's. Trial results never expose intermediate states, so
    /// this closes the gap — the replay may not even *transiently* diverge
    /// in anything the trace ring can observe.
    #[test]
    fn replay_traces_identically(seed in 0u64..100_000, setup in setups(), fault in faults()) {
        let cache = BootCache::new();
        let mech = Microreset::nilihype();
        let cfg = TrialConfig::new(setup, fault, seed);
        let run = |opts: TrialRunOptions| {
            let (mut hv, layout) = cache.checkout(&cfg.machine, cfg.setup, cfg.seed);
            hv.trace = TraceRing::new(4096, TraceLevel::Debug);
            let (result, record, hv) = run_trial_with(hv, &layout, &cfg, &mech, opts);
            (result, record, hv.trace.dump())
        };
        let (original, record, original_dump) = run(TrialRunOptions::default());
        let (replayed, _, replay_dump) = run(TrialRunOptions {
            trigger_ops: Some(record.trigger_ops),
            ..TrialRunOptions::default()
        });
        prop_assert_eq!(original, replayed);
        prop_assert_eq!(original_dump, replay_dump);
    }
}

/// End-to-end bisection: a detected fail-stop trial must diverge from its
/// fault-free reference execution, and the divergent step the search pins
/// must fall inside both runs.
#[test]
fn bisect_pins_injected_trial_against_reference() {
    let cache = BootCache::new();
    let mech = Microreset::nilihype();
    let cfg = TrialConfig::new(
        SetupKind::OneAppVm(BenchKind::UnixBench),
        FaultType::Failstop,
        2018,
    );
    let (result, record) = recorded_trial(&cfg, &mech, &cache);
    assert!(
        result.observations.detected,
        "seed 2018 is a detected fail-stop trial (pinned by tests/golden.rs)"
    );

    let steered = TrialRunOptions {
        trigger_ops: Some(record.trigger_ops),
        ..TrialRunOptions::default()
    };
    let reference = TrialRunOptions {
        inject: false,
        ..TrialRunOptions::default()
    };
    let report = bisect_trials((&cfg, &steered), (&cfg, &reference), &mech, &cache)
        .expect("a detected fault must diverge from its fault-free reference");
    assert!(report.divergent_step < report.a.steps.min(report.b.steps) + 1);
    // Binary search over ~half a million steps: ~20 probes, never hundreds.
    assert!(report.probes <= 64, "{} probes", report.probes);
}
