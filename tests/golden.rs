//! Golden regression tests: exact campaign outputs at pinned seeds.
//!
//! The calibration tests check tolerance bands against the paper's
//! figures; these pin the *exact* aggregate counts of small Table I and
//! Figure 2 campaigns at fixed seeds. Any change to boot construction,
//! seeding, stepping order, injection, recovery, or classification shifts
//! at least one of these counts — making unintended behaviour changes
//! (e.g. from a future warm-start or scheduler refactor) visible in review
//! instead of silently drifting the reproduced figures.
//!
//! If a change *intentionally* alters trial behaviour, re-record the
//! constants: print the actual values (each assertion message carries
//! them) and update the tables below.
//!
//! Every golden is reached the way `campaign_server` reaches it: through
//! [`CampaignEngine`], from the cells of the checked-in manifests it runs.
//! That pins the manifests themselves: a changed cell in `suite.manifest`
//! shifts a count here, and each test also checks which cells it found
//! and that they share one template build. The sampled manifest goldens (device,
//! overcommit, guided) run their cells as one suite through
//! [`CampaignEngine::run_suite`], the path `campaign_server` takes, which
//! runs independent sampled cells concurrently.

use nilihype::campaign::{
    CampaignEngine, CampaignSpec, CellOutput, ExecMode, MechanismSpec, NullSink, SampledCampaign,
    SamplingMode, SuiteSpec,
};
use nilihype::inject::FaultType;
use nilihype::recovery::LadderRung;

/// Table I ladder, 40 trials per rung, base seed 2018:
/// (rung index, detected, successes, no_vmf).
const GOLDEN_LADDER: [(usize, u64, u64, u64); 8] = [
    (0, 40, 0, 0),   // Basic
    (1, 40, 5, 5),   // ClearIrqCount
    (2, 40, 21, 21), // ReHypeMechanisms
    (3, 40, 31, 31), // SchedConsistency
    (4, 40, 38, 38), // ReprogramTimer
    (5, 40, 38, 38), // UnlockStaticLocks
    (6, 40, 38, 38), // ReactivateTimerEvents
    (7, 40, 38, 38), // VirtqueueConsistency (== above: no devices in this setup)
];

/// Figure 2 campaigns, 3AppVM, 30 trials, seed 77:
/// (non_manifested, sdc, detected, successes, no_vmf) per fault type.
/// NiLiHype and ReHype agree exactly at these seeds: injection outcomes
/// are mechanism-independent, and both mechanisms recover the same trials.
const GOLDEN_FIG2: [(FaultType, [u64; 5]); 3] = [
    (FaultType::Failstop, [0, 0, 30, 30, 30]),
    (FaultType::Register, [23, 3, 4, 2, 2]),
    (FaultType::Code, [13, 2, 15, 11, 9]),
];

/// Device-heavy steered campaigns (the `device-*` jobs of
/// `suite.manifest`): 2AppVM vswitch, faults held for the `VirtioMmio`
/// handler, coverage-guided, 20 trials, seed 2018. Rows: (fault,
/// detected, successes without the virtqueue-consistency rung, successes
/// with it). Same seed corpus on both sides — detection counts are
/// mechanism-independent.
const GOLDEN_DEVICE: [(FaultType, u64, u64, u64); 3] = [
    (FaultType::Failstop, 20, 3, 20),
    (FaultType::Register, 4, 0, 4),
    (FaultType::Code, 11, 0, 8),
];

/// Overcommit campaign at 2:1 (the `overcommit-2-steered-*` jobs of
/// `overcommit.manifest`): faults depth-steered into `Scheduler` programs,
/// depth cycle 16, coverage-guided, 20 trials per fault type, seed 2018.
/// Rows: (mechanism spelling, detected, successes), each summed over the
/// three fault types — the rung-off and rung-on cells of EXPERIMENTS.md's
/// 2:1 row.
const GOLDEN_OVERCOMMIT_STEERED: [(&str, u64, u64); 2] =
    [("NiLiHype-NoSchedFix", 35, 23), ("NiLiHype", 35, 32)];

/// Uniform vs coverage-guided sampling (`guided.manifest`): 1AppVM
/// UnixBench, fail-stop, full NiLiHype, 120 trials, seed 2018. Rows:
/// (sampling, 1-based first residual-failure trial, failures, successes).
const GOLDEN_GUIDED: [(SamplingMode, u64, u64, u64); 2] = [
    (SamplingMode::Uniform, 37, 6, 114),
    (SamplingMode::CoverageGuided, 38, 2, 118),
];

const SUITE_MANIFEST: &str = include_str!("../crates/experiments/manifests/suite.manifest");
const OVERCOMMIT_MANIFEST: &str =
    include_str!("../crates/experiments/manifests/overcommit.manifest");
const GUIDED_MANIFEST: &str = include_str!("../crates/experiments/manifests/guided.manifest");

/// The cells of a checked-in manifest whose job names start with
/// `prefix`, in file order.
fn manifest_cells(manifest: &str, prefix: &str) -> Vec<CampaignSpec> {
    SuiteSpec::parse(manifest)
        .expect("checked-in manifest parses")
        .jobs
        .into_iter()
        .map(|job| job.spec)
        .filter(|spec| spec.name.starts_with(prefix))
        .collect()
}

/// Runs the cells of `manifest` whose job names start with `prefix` as one
/// suite through `run_suite`, returning each spec with its sampled
/// campaign, in suite order.
fn run_sampled_suite(
    engine: &CampaignEngine,
    manifest: &str,
    prefix: &str,
) -> Vec<(CampaignSpec, SampledCampaign)> {
    let mut suite = SuiteSpec::default();
    for spec in manifest_cells(manifest, prefix) {
        suite.push(spec);
    }
    let outcomes = engine
        .run_suite(&suite, &mut NullSink)
        .expect("checked-in manifest cells form a valid suite");
    suite
        .jobs
        .into_iter()
        .zip(outcomes)
        .map(|(job, outcome)| {
            assert_eq!(job.spec.name, outcome.name, "outcomes in suite order");
            match outcome.cell.output {
                CellOutput::Sampled(s) => (job.spec, *s),
                _ => panic!("{} is a sampled cell", outcome.name),
            }
        })
        .collect()
}

/// The Table I ladder through the engine, from `suite.manifest`'s
/// `ladder-*` jobs: one template build for all eight rungs.
#[test]
fn golden_engine_table1_ladder_counts() {
    let engine = CampaignEngine::new();
    let cells = manifest_cells(SUITE_MANIFEST, "ladder-");
    assert_eq!(cells.len(), GOLDEN_LADDER.len());
    for (spec, &(idx, detected, successes, no_vmf)) in cells.iter().zip(&GOLDEN_LADDER) {
        assert_eq!(spec.mechanism, MechanismSpec::rung(LadderRung::ALL[idx]));
        let cell = engine.run_spec(spec, &mut NullSink);
        let r = cell.sharded().expect("sharded cell");
        assert_eq!(
            (idx, r.detected, r.successes, r.no_vmf),
            (idx, detected, successes, no_vmf),
            "engine ladder cell {} drifted (index, detected, successes, no_vmf)",
            spec.name
        );
    }
    // The engine built the 1AppVM template once; all other checkouts of
    // the eight rungs were warm hits on the shared cache.
    let stats = engine.cache().counters();
    assert_eq!(stats.misses, 1, "ladder shares one template build");
    assert_eq!(stats.hits, 8 * 40 - 1);
}

/// Figure 2 through the engine, from `suite.manifest`'s `fig2-*` jobs:
/// the per-fault cells of both mechanisms land on the same goldens and all
/// reuse one 3AppVM template.
#[test]
fn golden_engine_fig2_counts() {
    let engine = CampaignEngine::new();
    let cells = manifest_cells(SUITE_MANIFEST, "fig2-");
    let grid: Vec<_> = cells.iter().map(|s| (s.mechanism, s.fault)).collect();
    let expected: Vec<_> = [MechanismSpec::nilihype(), MechanismSpec::rehype()]
        .into_iter()
        .flat_map(|m| GOLDEN_FIG2.iter().map(move |&(fault, _)| (m, fault)))
        .collect();
    assert_eq!(grid, expected, "suite.manifest's fig2 grid");
    for spec in &cells {
        let (_, expect) = GOLDEN_FIG2
            .iter()
            .find(|(fault, _)| *fault == spec.fault)
            .expect("golden row per fault");
        let cell = engine.run_spec(spec, &mut NullSink);
        let r = cell.sharded().expect("sharded cell");
        let got = [r.non_manifested, r.sdc, r.detected, r.successes, r.no_vmf];
        assert_eq!(
            &got, expect,
            "engine fig2 cell {} drifted (non_manifested, sdc, detected, successes, no_vmf)",
            spec.name
        );
    }
    assert_eq!(engine.cache().counters().misses, 1, "six cells, one build");
}

/// The device campaign through the engine, from `suite.manifest`'s
/// `device-*` jobs run as one suite: every `GOLDEN_DEVICE` row, with the
/// virtqueue-consistency rung off and on. The rung must raise the recovery
/// rate on every fault type, and all six sampled cells share one
/// 2AppVM-vswitch template.
#[test]
fn golden_engine_device_campaign_failstop() {
    let engine = CampaignEngine::new();
    let cells = run_sampled_suite(&engine, SUITE_MANIFEST, "device-");
    assert_eq!(cells.len(), 2 * GOLDEN_DEVICE.len());
    for &(fault, detected, without, with) in &GOLDEN_DEVICE {
        let run = |rung: LadderRung| {
            let (_, s) = cells
                .iter()
                .find(|(spec, _)| {
                    spec.fault == fault && spec.mechanism == MechanismSpec::rung(rung)
                })
                .unwrap_or_else(|| panic!("suite.manifest has a {fault} cell at {rung:?}"));
            (s.successes + s.failures, s.successes)
        };
        let (detected_off, off) = run(LadderRung::ReactivateTimerEvents);
        let (detected_on, on) = run(LadderRung::VirtqueueConsistency);
        assert_eq!(
            (detected_off, detected_on, off, on),
            (detected, detected, without, with),
            "engine device campaign {fault} drifted (detected_off, detected_on, succ_without, succ_with)"
        );
        assert!(
            on > off,
            "{fault}: ring-consistency rung must raise the recovery rate"
        );
    }
    assert_eq!(engine.cache().counters().misses, 1, "six cells, one build");
}

/// The 2:1 steered arms of `overcommit.manifest`, run as one suite and
/// summed per arm over the three fault types; all six cells share one
/// Overcommit(2) template.
#[test]
fn golden_overcommit_steered_counts() {
    let engine = CampaignEngine::new();
    let cells = run_sampled_suite(&engine, OVERCOMMIT_MANIFEST, "overcommit-2-steered-");
    assert_eq!(cells.len(), 2 * FaultType::ALL.len());
    for &(mechanism, detected, successes) in &GOLDEN_OVERCOMMIT_STEERED {
        let mut sum = (0, 0);
        for (_, s) in cells
            .iter()
            .filter(|(spec, _)| spec.mechanism.name() == mechanism)
        {
            sum.0 += s.successes + s.failures;
            sum.1 += s.successes;
        }
        assert_eq!(
            sum,
            (detected, successes),
            "overcommit 2:1 steered {mechanism} drifted (detected, successes)"
        );
    }
    assert_eq!(engine.cache().counters().misses, 1, "six cells, one build");
}

/// `guided.manifest`, run as one suite: the same seed corpus under
/// uniform and coverage-guided sampling, sharing one 1AppVM template.
#[test]
fn golden_guided_first_failure() {
    let engine = CampaignEngine::new();
    let cells = run_sampled_suite(&engine, GUIDED_MANIFEST, "");
    assert_eq!(cells.len(), GOLDEN_GUIDED.len());
    for ((spec, s), &(sampling, first, failures, successes)) in cells.iter().zip(&GOLDEN_GUIDED) {
        assert!(
            matches!(spec.mode, ExecMode::Sampled { sampling: s, .. } if s == sampling),
            "job {} samples {sampling:?}",
            spec.name
        );
        assert_eq!(
            (
                s.first_failure_trial.map(|i| i + 1),
                s.failures,
                s.successes
            ),
            (Some(first), failures, successes),
            "guided.manifest job {} drifted (first failure, failures, successes)",
            spec.name
        );
    }
    assert_eq!(engine.cache().counters().misses, 1, "two cells, one build");
}
