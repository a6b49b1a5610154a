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
    bisect_trials, run_trial_with, BenchKind, BootCache, MechanismSpec, SetupKind, SuiteSpec,
    TrialConfig, TrialRecord, TrialResult, TrialRunOptions,
};
use nlh_core::{LadderRung, Microreset, RecoveryMechanism};
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
        // An HVM AppVM: syscalls stay inside the guest.
        Just(SetupKind::OneHvmAppVm(BenchKind::UnixBench)),
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

/// Records the first detected trial of `mechanism` among `seeds`, checks
/// the record names the mechanism's spelling, and replays it from its text
/// form with the mechanism that spelling parses to.
fn assert_detected_trial_replays(
    mechanism: MechanismSpec,
    setup: SetupKind,
    fault: FaultType,
    seeds: std::ops::Range<u64>,
    cache: &BootCache,
) {
    let name = mechanism.name();
    let mech = mechanism.build();
    let (original, record) = seeds
        .map(|seed| recorded_trial(&TrialConfig::new(setup, fault, seed), mech.as_ref(), cache))
        .find(|(result, _)| result.observations.detected)
        .unwrap_or_else(|| panic!("{name}: no detected {setup:?}/{fault} trial"));
    assert_eq!(record.mechanism, name);
    let parsed = TrialRecord::from_text(&record.to_text()).expect("record parses");
    let rebuilt = MechanismSpec::parse(&parsed.mechanism)
        .unwrap_or_else(|| panic!("{name}: record names {}", parsed.mechanism))
        .build();
    let replayed = parsed
        .replay(rebuilt.as_ref(), cache)
        .unwrap_or_else(|e| panic!("{name}: {e}"));
    assert_eq!(original, replayed, "{name}");
}

/// Every mechanism the campaign manifests name records itself under that
/// name, so a replay rebuilds the mechanism that ran. Ladder rungs and the
/// no-sched-fix arm once recorded as `NiLiHype` and replayed as full
/// NiLiHype, which drifted at the injection point.
#[test]
fn every_nameable_mechanism_replays_from_its_record() {
    let cache = BootCache::new();
    let mut specs = vec![
        MechanismSpec::nilihype(),
        MechanismSpec::rehype(),
        MechanismSpec::parse("NiLiHype-NoSchedFix").unwrap(),
    ];
    specs.extend(LadderRung::ALL.map(MechanismSpec::rung));
    for spec in specs {
        let setup = SetupKind::OneAppVm(BenchKind::UnixBench);
        assert_detected_trial_replays(spec, setup, FaultType::Failstop, 2018..2048, &cache);
    }
}

/// Every configuration the one-knob ablations run (the `mechanism` of each
/// job in `ablations.manifest`, on that job's setup, fault and seeds)
/// replays from a recorded detected trial: discard-faulting, undo logging
/// off, the scan off, the ReHype port rungs and checkpoint rollback.
#[test]
fn ablation_mechanisms_replay_from_their_records() {
    let manifest = include_str!("../../experiments/manifests/ablations.manifest");
    let suite = SuiteSpec::parse(manifest).expect("ablations.manifest parses");
    let cache = BootCache::new();
    let mut seen = Vec::new();
    for spec in suite.jobs.iter().map(|job| &job.spec) {
        if seen.contains(&spec.mechanism) {
            continue;
        }
        let seeds = spec.seed..spec.seed + spec.trials;
        assert_detected_trial_replays(spec.mechanism, spec.setup, spec.fault, seeds, &cache);
        seen.push(spec.mechanism);
    }
    assert_eq!(seen.len(), 8, "distinct ablation mechanisms");
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
