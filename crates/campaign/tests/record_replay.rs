//! Record-then-replay determinism: every trial's event record is enough to
//! reproduce the trial bit for bit.
//!
//! [`run_trial_with`] logs the trial's seed, config key, steered
//! trigger range and injection point. These properties pin the claim that
//! the record is *complete*: parsing the record back from its text form and
//! replaying it from a [`BootCache`] snapshot reproduces the full
//! [`TrialResult`] — injection outcome, observations, recovery report,
//! classification and exact step count — as well as an identical record
//! and final state digest. Nothing the trial did escaped the record.

use nlh_campaign::{
    bisect_trials, run_trial_with, BenchKind, BootCache, MechanismSpec, SetupKind, TrialConfig,
    TrialRecord, TrialResult, TrialRunOptions,
};
use nlh_core::{
    DiscardPolicy, Enhancements, LadderRung, Microreboot, Microreset, ReHypeConfig,
    RecoveryMechanism,
};
use nlh_inject::FaultType;
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

    /// Same property at the machine level: a replay steered by the
    /// record's trigger range writes the same record and leaves the same
    /// final state digest as the original run. The digest covers every
    /// piece of simulated state, so the replay may not diverge anywhere
    /// the trial result does not look.
    #[test]
    fn replay_digests_identically(seed in 0u64..100_000, setup in setups(), fault in faults()) {
        let cache = BootCache::new();
        let mech = Microreset::nilihype();
        let cfg = TrialConfig::new(setup, fault, seed);
        let run = |opts: TrialRunOptions| {
            let (hv, layout) = cache.checkout(&cfg.machine, cfg.setup, cfg.seed);
            let (result, record, hv) = run_trial_with(hv, &layout, &cfg, &mech, opts);
            (result, record, hv.state_digest())
        };
        let (original, record, original_digest) = run(TrialRunOptions::default());
        let (replayed, replay_record, replay_digest) = run(TrialRunOptions {
            trigger_ops: Some(record.trigger_ops),
            ..TrialRunOptions::default()
        });
        prop_assert_eq!(original, replayed);
        prop_assert_eq!(record, replay_record);
        prop_assert_eq!(original_digest, replay_digest);
    }
}

/// Every mechanism a manifest can name records itself under that name, so
/// a replay rebuilds the mechanism that ran. Ladder rungs and the no-sched-fix
/// arm once recorded as `NiLiHype` and replayed as full NiLiHype, which
/// drifted at the injection point.
#[test]
fn every_nameable_mechanism_replays_from_its_record() {
    let cache = BootCache::new();
    let mut specs = vec![
        MechanismSpec::Nilihype,
        MechanismSpec::Rehype,
        MechanismSpec::NilihypeNoSchedFix,
    ];
    specs.extend(LadderRung::ALL.map(MechanismSpec::Rung));
    for spec in specs {
        let mech = spec.build();
        let (original, record) = (2018..2048)
            .map(|seed| {
                let cfg = TrialConfig::new(
                    SetupKind::OneAppVm(BenchKind::UnixBench),
                    FaultType::Failstop,
                    seed,
                );
                recorded_trial(&cfg, mech.as_ref(), &cache)
            })
            .find(|(result, _)| result.observations.detected)
            .unwrap_or_else(|| panic!("{spec:?}: no detected trial in 30 seeds"));
        let parsed = TrialRecord::from_text(&record.to_text()).expect("record parses");
        let rebuilt = MechanismSpec::parse(&parsed.mechanism)
            .unwrap_or_else(|| panic!("{spec:?}: record names {}", parsed.mechanism))
            .build();
        let replayed = parsed
            .replay(rebuilt.as_ref(), &cache)
            .unwrap_or_else(|e| panic!("{spec:?} (recorded as {}): {e}", parsed.mechanism));
        assert_eq!(original, replayed, "{spec:?}");
    }
}

/// A configuration no manifest can name records a name the manifest parser
/// rejects, so its record refuses to replay as a different mechanism.
#[test]
fn unnameable_mechanisms_refuse_to_replay() {
    let cache = BootCache::new();
    let cfg = TrialConfig::new(
        SetupKind::OneAppVm(BenchKind::UnixBench),
        FaultType::Failstop,
        2018,
    );
    let custom: [Box<dyn RecoveryMechanism>; 3] = [
        Box::new(Microreset::nilihype().with_policy(DiscardPolicy::FaultingThreadOnly)),
        Box::new(Microreset::with_enhancements(Enhancements {
            nonidem_mitigation: false,
            ..Enhancements::full()
        })),
        Box::new(Microreboot::with_config(ReHypeConfig::initial_port())),
    ];
    for mech in custom {
        let (_, record) = recorded_trial(&cfg, mech.as_ref(), &cache);
        assert_eq!(
            MechanismSpec::parse(&record.mechanism),
            None,
            "{}",
            record.mechanism
        );
        for named in [
            Microreset::nilihype(),
            Microreset::with_enhancements(Enhancements::none()),
        ] {
            assert!(
                record.replay(&named, &cache).is_err(),
                "{}",
                record.mechanism
            );
        }
        assert!(record.replay(&Microreboot::rehype(), &cache).is_err());
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
