//! Engine determinism: the resident campaign engine is a pure
//! orchestration layer.
//!
//! The [`CampaignEngine`] shares one boot cache across campaigns, runs
//! trials on any free worker and folds results seed-ordered — none of
//! which may change what any trial computes. These tests pin that claim
//! for every `SetupKind` family at fixed seeds (each engine trial equals a
//! standalone cold-boot trial) and by property over random sampled specs
//! (a cell's result does not depend on what the shared cache served before
//! it). A suite whose independent sampled cells run concurrently, or whose
//! sibling sharded cells share each trial's run up to its first detection,
//! must report exactly what running its cells one by one reports.

use std::time::Instant;

use nlh_campaign::{
    build_system, run_sampled_campaign_in, run_trial_group, run_trial_with, BenchKind, BootCache,
    CampaignEngine, CampaignResult, CampaignSnapshot, CampaignSpec, CellOutput, CellResult,
    ExecMode, MechanismSpec, MemorySink, NullSink, SampledCampaign, SamplingMode, SetupKind,
    Sibling, SuiteSpec, TrialClass, TrialConfig, TrialResult, TrialRunOptions,
};
use nlh_core::{LadderRung, RecoveryMechanism};
use nlh_hv::HandlerKind;
use nlh_inject::FaultType;
use proptest::prelude::*;

/// Asserts every deterministic field of two campaign results agrees
/// (wall-clock telemetry and cache counters are host- or
/// context-dependent by design and excluded).
fn assert_campaigns_equal(a: &CampaignResult, b: &CampaignResult, label: &str) {
    assert_eq!(a.mechanism, b.mechanism, "{label}: mechanism");
    assert_eq!(a.fault, b.fault, "{label}: fault");
    assert_eq!(a.trials, b.trials, "{label}: trials");
    assert_eq!(
        a.non_manifested, b.non_manifested,
        "{label}: non_manifested"
    );
    assert_eq!(a.sdc, b.sdc, "{label}: sdc");
    assert_eq!(a.detected, b.detected, "{label}: detected");
    assert_eq!(a.successes, b.successes, "{label}: successes");
    assert_eq!(a.no_vmf, b.no_vmf, "{label}: no_vmf");
    assert_eq!(
        a.failure_reasons, b.failure_reasons,
        "{label}: failure_reasons"
    );
    assert_eq!(
        a.telemetry.total_steps, b.telemetry.total_steps,
        "{label}: total_steps"
    );
}

fn assert_sampled_equal(a: &SampledCampaign, b: &SampledCampaign, label: &str) {
    assert_eq!(a.trials, b.trials, "{label}: trials");
    assert_eq!(a.successes, b.successes, "{label}: successes");
    assert_eq!(a.failures, b.failures, "{label}: failures");
    assert_eq!(
        a.first_failure_trial, b.first_failure_trial,
        "{label}: first failure trial"
    );
    assert_eq!(
        a.coverage.to_json(),
        b.coverage.to_json(),
        "{label}: coverage map"
    );
    assert_eq!(
        format!("{:?}", a.first_failure_record),
        format!("{:?}", b.first_failure_record),
        "{label}: first failure record"
    );
}

/// Checks a sharded cell's aggregate against its own seed-ordered
/// per-trial results.
fn assert_aggregates_trials(r: &CampaignResult, trials: &[TrialResult], label: &str) {
    let count = |f: fn(&TrialClass) -> bool| trials.iter().filter(|t| f(&t.class)).count() as u64;
    assert_eq!(r.trials, trials.len() as u64, "{label}: trials");
    assert_eq!(
        r.non_manifested,
        count(|c| *c == TrialClass::NonManifested),
        "{label}: non_manifested"
    );
    assert_eq!(r.sdc, count(|c| *c == TrialClass::Sdc), "{label}: sdc");
    assert_eq!(
        r.successes,
        count(TrialClass::is_success),
        "{label}: successes"
    );
    assert_eq!(
        r.detected,
        r.successes + count(|c| matches!(c, TrialClass::RecoveryFailure(_))),
        "{label}: detected"
    );
    assert_eq!(
        r.telemetry.total_steps,
        trials.iter().map(|t| t.steps).sum::<u64>(),
        "{label}: total_steps"
    );
}

/// Every `SetupKind` family, fixed seeds and a spread of mechanisms: each
/// engine trial, warm-started from the shared cache, equals a standalone
/// cold-boot trial of that seed (`build_system` + `run_trial_with`), and
/// the cell's aggregate is exactly the fold of those trials.
#[test]
fn engine_trials_equal_cold_trials_for_every_setup_family() {
    let engine = CampaignEngine::new();
    let cells: [(SetupKind, FaultType, u64, u64, MechanismSpec); 7] = [
        (
            SetupKind::OneAppVm(BenchKind::UnixBench),
            FaultType::Failstop,
            10,
            2018,
            MechanismSpec::nilihype(),
        ),
        (
            SetupKind::OneAppVm(BenchKind::VirtioBlkBench),
            FaultType::Register,
            8,
            41,
            MechanismSpec::rung(LadderRung::SchedConsistency),
        ),
        (
            SetupKind::ThreeAppVm,
            FaultType::Code,
            8,
            77,
            MechanismSpec::rehype(),
        ),
        (
            SetupKind::TwoAppVmSharedCpu,
            FaultType::Register,
            8,
            99,
            MechanismSpec::nilihype(),
        ),
        (
            SetupKind::TwoAppVmVswitch,
            FaultType::Failstop,
            6,
            2018,
            MechanismSpec::nilihype(),
        ),
        (
            SetupKind::Overcommit(2),
            FaultType::Code,
            6,
            7,
            MechanismSpec::parse("NiLiHype-NoSchedFix").unwrap(),
        ),
        (
            SetupKind::Overcommit(4),
            FaultType::Failstop,
            6,
            11,
            MechanismSpec::nilihype(),
        ),
    ];
    for (setup, fault, trials, seed, mechanism) in cells {
        let mut spec = CampaignSpec::new(format!("{setup:?}"), setup, fault, trials);
        spec.seed = seed;
        spec.mechanism = mechanism;
        let cell = engine.run_spec(&spec, &mut NullSink);
        let label = format!("{setup:?}/{fault}/{}", mechanism.name());
        let r = cell.sharded().unwrap();
        let mech = spec.mechanism.build();
        assert_eq!(r.mechanism, mech.name(), "{label}: mechanism");
        assert_eq!(r.fault, fault, "{label}: fault");
        assert_eq!(cell.per_trial.len() as u64, trials, "{label}: trial count");
        assert_aggregates_trials(r, &cell.per_trial, &label);

        for (i, engine_trial) in cell.per_trial.iter().enumerate() {
            let cfg = TrialConfig::new(setup, fault, seed + i as u64);
            let (hv, layout) = build_system(cfg.machine.clone(), cfg.setup, cfg.seed);
            let (standalone, _, _) =
                run_trial_with(hv, &layout, &cfg, mech.as_ref(), TrialRunOptions::default());
            assert_eq!(
                engine_trial, &standalone,
                "{label}: trial {i} diverged from a standalone cold-boot run"
            );
        }
    }
}

/// Cross-campaign cache reuse is observable in the cell counters, and
/// templates are RNG-isolated: running other campaigns against the shared
/// cache first (in any order) never changes a campaign's counts.
#[test]
fn shared_cache_reuse_is_observable_and_rng_isolated() {
    let setup = SetupKind::OneAppVm(BenchKind::UnixBench);
    let mut a = CampaignSpec::new("a", setup, FaultType::Register, 8);
    a.seed = 5;
    let mut b = CampaignSpec::new("b", setup, FaultType::Failstop, 8);
    b.seed = 900;

    // Fresh engines, opposite orders; plus B in isolation as the oracle.
    let ab = CampaignEngine::new();
    let a_first = ab.run_spec(&a, &mut NullSink);
    let b_second = ab.run_spec(&b, &mut NullSink);
    let ba = CampaignEngine::new();
    let b_first = ba.run_spec(&b, &mut NullSink);
    let a_second = ba.run_spec(&a, &mut NullSink);
    let b_alone = CampaignEngine::new().run_spec(&b, &mut NullSink);

    assert_campaigns_equal(
        b_second.sharded().unwrap(),
        b_alone.sharded().unwrap(),
        "B after A vs B alone",
    );
    assert_campaigns_equal(
        b_first.sharded().unwrap(),
        b_alone.sharded().unwrap(),
        "B before A vs B alone",
    );
    assert_campaigns_equal(
        a_first.sharded().unwrap(),
        a_second.sharded().unwrap(),
        "A first vs A second",
    );
    // Per trial too, recovery reports included.
    assert_eq!(b_second.per_trial, b_alone.per_trial);
    assert_eq!(b_first.per_trial, b_alone.per_trial);
    assert_eq!(a_first.per_trial, a_second.per_trial);

    // The second campaign on each engine found the template resident.
    assert_eq!(a_first.cache.misses, 1);
    assert_eq!(b_second.cache.misses, 0, "B reused A's template");
    assert_eq!(b_second.cache.hits, 8);
    assert_eq!(a_second.cache.misses, 0, "A reused B's template");
}

fn sampled_spec(
    name: &str,
    setup: SetupKind,
    fault: FaultType,
    trials: u64,
    steer_handler: Option<HandlerKind>,
) -> CampaignSpec {
    let mut spec = CampaignSpec::new(name, setup, fault, trials);
    spec.seed = 2018;
    spec.snapshot_every = 2;
    spec.mode = ExecMode::Sampled {
        windows: 4,
        sampling: SamplingMode::CoverageGuided,
        steer_handler,
        depth_cycle: 3,
    };
    spec
}

/// Snapshots with the host-dependent wall time cleared.
fn without_wall(snapshots: &[CampaignSnapshot]) -> Vec<CampaignSnapshot> {
    snapshots
        .iter()
        .map(|s| CampaignSnapshot {
            wall_secs: 0.0,
            ..s.clone()
        })
        .collect()
}

fn assert_cells_equal(a: &CellResult, b: &CellResult, label: &str) {
    assert_eq!(a.executed, b.executed, "{label}: executed");
    assert_eq!(a.cache, b.cache, "{label}: cache counters");
    assert_eq!(a.per_trial, b.per_trial, "{label}: per-trial results");
    match (&a.output, &b.output) {
        (CellOutput::Sharded(x), CellOutput::Sharded(y)) => assert_campaigns_equal(x, y, label),
        (CellOutput::Sampled(x), CellOutput::Sampled(y)) => assert_sampled_equal(x, y, label),
        _ => panic!("{label}: cell modes differ"),
    }
}

/// A suite that mixes sharded and sampled cells, with an `after` edge
/// that splits two sampled stretches, sampled cells sharing a template
/// nobody has built yet, and a new template inside a concurrent group.
/// `run_suite` (which runs each
/// stretch of independent sampled cells concurrently) must report exactly
/// what running the cells one by one in suite order on a fresh engine
/// reports: outcomes in order, results, coverage maps, per-cell cache
/// counters, and every snapshot but its wall time.
#[test]
fn concurrent_suite_equals_cells_run_one_by_one() {
    let vswitch = SetupKind::TwoAppVmVswitch;
    let one = SetupKind::OneAppVm(BenchKind::UnixBench);
    let mut suite = SuiteSpec::default();
    // A long cell between two short ones: whichever worker runs the short
    // ones finishes both while the long one still runs, so only in-order
    // delivery keeps the sink's sequence.
    suite.push(sampled_spec(
        "vswitch-a",
        vswitch,
        FaultType::Failstop,
        2,
        Some(HandlerKind::VirtioMmio),
    ));
    suite.push(sampled_spec(
        "vswitch-b",
        vswitch,
        FaultType::Register,
        8,
        None,
    ));
    suite.push(sampled_spec("vswitch-c", vswitch, FaultType::Code, 2, None));
    suite.push_after(
        sampled_spec("after-a", one, FaultType::Failstop, 4, None),
        &["vswitch-a"],
    );
    let mut sharded = CampaignSpec::new("sharded", one, FaultType::Failstop, 6);
    sharded.snapshot_every = 3;
    suite.push(sharded);
    suite.push(sampled_spec(
        "overcommit",
        SetupKind::Overcommit(2),
        FaultType::Failstop,
        6,
        Some(HandlerKind::Scheduler),
    ));
    suite.push(sampled_spec(
        "three",
        SetupKind::ThreeAppVm,
        FaultType::Code,
        3,
        None,
    ));

    let mut concurrent_sink = MemorySink::default();
    let concurrent = CampaignEngine::new()
        .run_suite(&suite, &mut concurrent_sink)
        .expect("valid suite");

    // Suite order is submission order here; groups are {vswitch-a,
    // vswitch-b, vswitch-c}, {after-a}, {sharded}, {overcommit}, {three}.
    let one_by_one = CampaignEngine::new();
    let mut sequential_sink = MemorySink::default();
    let names: Vec<&str> = concurrent.iter().map(|o| o.name.as_str()).collect();
    let expected: Vec<&str> = suite.jobs.iter().map(|j| j.spec.name.as_str()).collect();
    assert_eq!(names, expected, "outcomes come back in suite order");
    for (job, outcome) in suite.jobs.iter().zip(&concurrent) {
        let cell = one_by_one.run_spec(&job.spec, &mut sequential_sink);
        assert_cells_equal(&outcome.cell, &cell, &job.spec.name);
    }
    assert_eq!(
        without_wall(&concurrent_sink.snapshots),
        without_wall(&sequential_sink.snapshots),
        "snapshot sequence"
    );

    let cache = |name: &str| {
        concurrent
            .iter()
            .find(|o| o.name == name)
            .unwrap()
            .cell
            .cache
    };
    assert_eq!(
        [cache("vswitch-a"), cache("vswitch-b"), cache("vswitch-c")].map(|c| c.misses),
        [1, 0, 0],
        "the first sampled cell in suite order pays the shared build"
    );
    assert_eq!(
        (
            cache("overcommit").resident_templates,
            cache("three").resident_templates
        ),
        (3, 4)
    );
}

/// A sharded 1AppVM/UnixBench cell with `mechanism`.
fn rung_cell(name: &str, fault: FaultType, trials: u64, mechanism: &str) -> CampaignSpec {
    let mut spec = CampaignSpec::new(
        name,
        SetupKind::OneAppVm(BenchKind::UnixBench),
        fault,
        trials,
    );
    spec.mechanism = MechanismSpec::parse(mechanism).unwrap();
    spec
}

/// Sibling groups: consecutive sharded cells with one setup, seed and
/// `OpSupport` run each trial once up to its first detection. The suite
/// holds the eight ladder rungs of `suite.manifest` (two groups:
/// `Basic`/`ClearIrqCount`, whose undo logging is off, and the six rungs
/// from `ReHypeMechanisms` up), a Register-fault pair whose non-manifested
/// trials are shared whole, a snapshot-cadence pair, and a pair that
/// differs only in its trial budget. `run_suite` must report exactly what
/// running each cell alone reports: results, per-trial results, cache
/// counters and every snapshot but its wall time. The suite's real
/// checkouts show which cells grouped, and the cells' final wall times
/// must not add up to more than the suite took.
#[test]
fn sibling_groups_equal_cells_run_one_by_one() {
    let manifest = include_str!("../../experiments/manifests/suite.manifest");
    let mut suite = SuiteSpec::default();
    for job in SuiteSpec::parse(manifest).unwrap().jobs {
        if job.spec.name.starts_with("ladder-") {
            let mut spec = job.spec;
            spec.trials = 4;
            suite.push(spec);
        }
    }
    assert_eq!(suite.jobs.len(), 8, "suite.manifest's eight ladder rungs");
    let register = ["Rung(ReHypeMechanisms)", "Rung(VirtqueueConsistency)"];
    for (i, mech) in register.iter().enumerate() {
        let mut spec = rung_cell(&format!("register-{i}"), FaultType::Register, 6, mech);
        spec.seed = 5;
        suite.push(spec);
    }
    for (i, mech) in ["Rung(SchedConsistency)", "Rung(ReprogramTimer)"]
        .iter()
        .enumerate()
    {
        let mut spec = rung_cell(&format!("every-{i}"), FaultType::Code, 5, mech);
        spec.snapshot_every = 2;
        suite.push(spec);
    }
    for (i, trials) in [3, 4].into_iter().enumerate() {
        let mut spec = rung_cell(
            &format!("budget-{i}"),
            FaultType::Failstop,
            trials,
            "NiLiHype",
        );
        spec.seed = 9;
        suite.push(spec);
    }

    let engine = CampaignEngine::new();
    let mut grouped_sink = MemorySink::default();
    let started = Instant::now();
    let grouped = engine
        .run_suite(&suite, &mut grouped_sink)
        .expect("valid suite");
    let suite_wall = started.elapsed().as_secs_f64();

    let one_by_one = CampaignEngine::new();
    let mut sequential_sink = MemorySink::default();
    for (job, outcome) in suite.jobs.iter().zip(&grouped) {
        assert_eq!(
            outcome.name, job.spec.name,
            "outcomes come back in suite order"
        );
        let cell = one_by_one.run_spec(&job.spec, &mut sequential_sink);
        assert_cells_equal(&outcome.cell, &cell, &job.spec.name);
    }
    assert_eq!(
        without_wall(&grouped_sink.snapshots),
        without_wall(&sequential_sink.snapshots),
        "snapshot sequence"
    );

    // One real checkout per trial of each group: the two ladder groups, the
    // Register pair, the cadence pair, and the budget pair as far as its
    // longer cell runs.
    let checkouts = engine.cache().counters();
    assert_eq!(
        checkouts.hits + checkouts.misses,
        4 + 4 + 6 + 5 + 4,
        "real checkouts"
    );
    let final_walls: f64 = grouped_sink
        .snapshots
        .iter()
        .filter(|s| s.done)
        .map(|s| s.wall_secs)
        .sum();
    assert!(
        final_walls <= suite_wall,
        "cells' wall times sum to {final_walls} s, more than the suite's {suite_wall} s"
    );
}

/// Runs `suite` through `run_suite` and each cell alone on a fresh engine,
/// and requires the same outcomes in suite order, the same cells (results,
/// coverage maps, first-failure records, cache counters) and the same
/// snapshot sequence, wall time aside. Returns the grouped run's real
/// checkouts.
fn assert_suite_equals_cells_alone(suite: &SuiteSpec) -> u64 {
    let engine = CampaignEngine::new();
    let mut grouped_sink = MemorySink::default();
    let grouped = engine
        .run_suite(suite, &mut grouped_sink)
        .expect("valid suite");
    let one_by_one = CampaignEngine::new();
    let mut sequential_sink = MemorySink::default();
    assert_eq!(grouped.len(), suite.jobs.len());
    for (job, outcome) in suite.jobs.iter().zip(&grouped) {
        assert_eq!(outcome.name, job.spec.name, "outcomes in suite order");
        let cell = one_by_one.run_spec(&job.spec, &mut sequential_sink);
        assert_cells_equal(&outcome.cell, &cell, &job.spec.name);
    }
    assert_eq!(
        without_wall(&grouped_sink.snapshots),
        without_wall(&sequential_sink.snapshots),
        "snapshot sequence"
    );
    let counters = engine.cache().counters();
    counters.hits + counters.misses
}

/// Sampled sibling groups: steered vswitch cells that differ in fault and
/// mechanism but share one `OpSupport` run each trial once up to its
/// arming step and fork it once per cell, each with the window its own
/// coverage map picks. The group holds cells of three budgets and one
/// with a snapshot cadence; a cell whose mechanism logs differently
/// (`Rung(Basic)`) must not join. Every cell must equal its solo run, and
/// the group checks out one system per trial of its largest budget.
#[test]
fn sampled_group_equals_cells_run_one_by_one() {
    let steered = |name: &str, fault, mechanism: &str, trials| {
        let mut spec = sampled_spec(
            name,
            SetupKind::TwoAppVmVswitch,
            fault,
            trials,
            Some(HandlerKind::VirtioMmio),
        );
        spec.snapshot_every = 0;
        spec.mechanism = MechanismSpec::parse(mechanism).unwrap();
        spec
    };
    let mut suite = SuiteSpec::default();
    let no_repair = "Rung(ReactivateTimerEvents)";
    let repair = "Rung(VirtqueueConsistency)";
    suite.push(steered("failstop-a", FaultType::Failstop, no_repair, 8));
    suite.push(steered("failstop-b", FaultType::Failstop, repair, 8));
    let mut every = steered("register-every", FaultType::Register, repair, 7);
    every.snapshot_every = 3;
    suite.push(every);
    suite.push(steered("code", FaultType::Code, no_repair, 5));
    suite.push(steered("basic", FaultType::Failstop, "Rung(Basic)", 3));

    let checkouts = assert_suite_equals_cells_alone(&suite);
    assert_eq!(checkouts, 8 + 3, "one checkout per trial of the group");
}

/// A sharded sibling group may mix faults: Figure 2's NiLiHype cells fork
/// each trial at its arming step, once per fault.
#[test]
fn sharded_group_mixing_faults_equals_cells_run_one_by_one() {
    let mut suite = SuiteSpec::default();
    for fault in FaultType::ALL {
        let mut spec = CampaignSpec::new(format!("fig2-{fault}"), SetupKind::ThreeAppVm, fault, 4);
        spec.seed = 77;
        spec.snapshot_every = 2;
        suite.push(spec);
    }
    let checkouts = assert_suite_equals_cells_alone(&suite);
    assert_eq!(checkouts, 4, "one checkout per trial of the group");
}

/// The trial layer of a sibling group: for each rung from
/// `ReHypeMechanisms` up (one `OpSupport`), the group trial hands the rung
/// exactly what `run_trial_with` returns for it alone: the result, the
/// record's text and the final machine's state digest. Fail-stop trials
/// fork at detection; Register and Code trials include ones shared whole.
#[test]
fn group_trial_equals_each_rung_alone() {
    let cache = BootCache::new();
    let built: Vec<Box<dyn RecoveryMechanism>> = LadderRung::ALL[2..]
        .iter()
        .map(|&rung| MechanismSpec::rung(rung).build())
        .collect();
    let mechs: Vec<&dyn RecoveryMechanism> = built.iter().map(|m| m.as_ref()).collect();
    let setup = SetupKind::OneAppVm(BenchKind::UnixBench);
    for (fault, seeds) in [
        (FaultType::Failstop, 2018..2021),
        (FaultType::Register, 40..43),
        (FaultType::Code, 60..63),
    ] {
        for seed in seeds {
            let cfg = TrialConfig::new(setup, fault, seed);
            let (hv, layout) = cache.checkout(&cfg.machine, setup, seed);
            let siblings: Vec<Sibling> = mechs
                .iter()
                .map(|&mechanism| Sibling {
                    config: cfg.clone(),
                    mechanism,
                    opts: TrialRunOptions::default(),
                })
                .collect();
            let mut finished = Vec::new();
            run_trial_group(hv, &layout, &siblings, |k, r, record, hv| {
                finished.push((k, r, record.to_text(), hv.state_digest()))
            });
            assert_eq!(
                finished.len(),
                mechs.len(),
                "{fault}/{seed}: one trial per rung"
            );
            for ((k, r, text, digest), mech) in finished.into_iter().zip(&mechs) {
                let label = format!("{fault}/{seed}/{}", mech.name());
                let (hv, layout) = cache.checkout(&cfg.machine, setup, seed);
                let (alone, record, hv) =
                    run_trial_with(hv, &layout, &cfg, *mech, TrialRunOptions::default());
                assert_eq!(r, alone, "{label}: result (sibling {k})");
                assert_eq!(text, record.to_text(), "{label}: record");
                assert_eq!(digest, hv.state_digest(), "{label}: state digest");
            }
        }
    }
}

/// The same on `TwoAppVmVswitch`, whose virtio devices give every rung
/// from `ReHypeMechanisms` up its own recovery plan: no rung takes over
/// another's post-recovery run, and each still gets exactly its solo
/// trial.
#[test]
fn vswitch_group_trial_equals_each_rung_alone() {
    let cache = BootCache::new();
    let built: Vec<Box<dyn RecoveryMechanism>> = LadderRung::ALL[2..]
        .iter()
        .map(|&rung| MechanismSpec::rung(rung).build())
        .collect();
    let mechs: Vec<&dyn RecoveryMechanism> = built.iter().map(|m| m.as_ref()).collect();
    let setup = SetupKind::TwoAppVmVswitch;
    for seed in [3, 2018] {
        let cfg = TrialConfig::new(setup, FaultType::Failstop, seed);
        let (hv, layout) = cache.checkout(&cfg.machine, setup, seed);
        let plans: Vec<_> = mechs.iter().map(|m| m.plan(&hv)).collect();
        for (a, plan) in plans.iter().enumerate() {
            assert!(
                !plans[a + 1..].contains(plan),
                "{seed}: rung {a} shares a plan"
            );
        }
        let siblings: Vec<Sibling> = mechs
            .iter()
            .map(|&mechanism| Sibling {
                config: cfg.clone(),
                mechanism,
                opts: TrialRunOptions::default(),
            })
            .collect();
        let mut finished = Vec::new();
        run_trial_group(hv, &layout, &siblings, |k, r, record, hv| {
            finished.push((k, r, record.to_text(), hv.state_digest()))
        });
        assert_eq!(finished.len(), mechs.len(), "{seed}: one trial per rung");
        for ((k, r, text, digest), mech) in finished.into_iter().zip(&mechs) {
            let label = format!("{seed}/{}", mech.name());
            assert!(r.observations.detected, "{label}: detected");
            let (hv, layout) = cache.checkout(&cfg.machine, setup, seed);
            let (alone, record, hv) =
                run_trial_with(hv, &layout, &cfg, *mech, TrialRunOptions::default());
            assert_eq!(r, alone, "{label}: result (sibling {k})");
            assert_eq!(text, record.to_text(), "{label}: record");
            assert_eq!(digest, hv.state_digest(), "{label}: state digest");
        }
    }
}

fn faults() -> impl Strategy<Value = FaultType> {
    prop_oneof![
        Just(FaultType::Failstop),
        Just(FaultType::Register),
        Just(FaultType::Code),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Random sampled specs (windows, sampling mode, steer handler, depth
    /// cycle): a cell on a fresh engine equals a direct
    /// `run_sampled_campaign_in` over a fresh cache, and equals the same
    /// cell run after other cells — sharded and sampled, other seeds —
    /// have warmed the engine's shared cache.
    #[test]
    fn sampled_cell_is_independent_of_cache_history(
        seed in 0u64..100_000,
        fault in faults(),
        trials in 1u64..6,
        windows in 1usize..9,
        guided in 0u8..2,
        steer in 0u8..3,
        depth_cycle in 1u64..4,
    ) {
        let sampling = if guided == 1 {
            SamplingMode::CoverageGuided
        } else {
            SamplingMode::Uniform
        };
        let steer_handler = match steer {
            0 => None,
            1 => Some(HandlerKind::VirtioMmio),
            _ => Some(HandlerKind::Scheduler),
        };
        let setup = SetupKind::TwoAppVmVswitch;
        let mut spec = CampaignSpec::new("prop-sampled", setup, fault, trials);
        spec.seed = seed;
        spec.mode = ExecMode::Sampled { windows, sampling, steer_handler, depth_cycle };
        let fresh = CampaignEngine::new().run_spec(&spec, &mut NullSink);

        let mech = spec.mechanism.build();
        let direct = run_sampled_campaign_in(
            &BootCache::new(), setup, fault, mech.as_ref(), seed, trials, windows, sampling,
            steer_handler, depth_cycle, &mut |_, _, _| false,
        );
        assert_sampled_equal(fresh.sampled().unwrap(), &direct, "fresh engine vs direct");

        let warmed = CampaignEngine::new();
        let mut other = CampaignSpec::new("other-sharded", setup, FaultType::Failstop, 2);
        other.seed = seed.wrapping_add(7);
        warmed.run_spec(&other, &mut NullSink);
        other.name = "other-sampled".into();
        other.mode = ExecMode::Sampled {
            windows: 3,
            sampling: SamplingMode::CoverageGuided,
            steer_handler: Some(HandlerKind::VirtioMmio),
            depth_cycle: 2,
        };
        warmed.run_spec(&other, &mut NullSink);
        let after = warmed.run_spec(&spec, &mut NullSink);
        prop_assert_eq!(after.cache.misses, 0, "the template was already resident");
        assert_sampled_equal(fresh.sampled().unwrap(), after.sampled().unwrap(), "fresh vs warmed");
    }
}
