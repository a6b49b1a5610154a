//! Calibration tests: the reproduction's headline numbers stay within a
//! tolerance band of the paper's results (shape fidelity, not exact
//! matching — our substrate is a simulator, not the authors' testbed).
//!
//! Tolerances here are loose enough to be stable across seeds with the
//! modest trial counts a test suite can afford; the manifests under
//! `crates/experiments/manifests/` run the full-size campaigns.

use nilihype::campaign::{
    BenchKind, CampaignEngine, CampaignResult, CampaignSpec, MechanismSpec, NullSink, SetupKind,
    SuiteSpec,
};
use nilihype::inject::FaultType;
use nilihype::recovery::LadderRung;

const TABLE1_MANIFEST: &str = include_str!("../crates/experiments/manifests/table1.manifest");

/// Runs a sharded campaign cell of `mechanism` on `engine`.
fn campaign(
    engine: &CampaignEngine,
    setup: SetupKind,
    fault: FaultType,
    trials: u64,
    seed: u64,
    mechanism: MechanismSpec,
) -> CampaignResult {
    let mut spec = CampaignSpec::new("cell", setup, fault, trials);
    spec.seed = seed;
    spec.mechanism = mechanism;
    let cell = engine.run_spec(&spec, &mut NullSink);
    cell.sharded().expect("sharded cell").clone()
}

/// The eight rung cells of `table1.manifest`, at 150 trials each.
#[test]
fn table1_ladder_tracks_paper_shape() {
    let engine = CampaignEngine::new();
    let cells = SuiteSpec::parse(TABLE1_MANIFEST)
        .expect("table1.manifest parses")
        .jobs;
    let rungs: Vec<_> = cells.iter().map(|job| job.spec.mechanism).collect();
    let expected: Vec<_> = LadderRung::ALL.map(MechanismSpec::rung).to_vec();
    assert_eq!(rungs, expected, "table1.manifest runs every rung, in order");
    let rates: Vec<f64> = cells
        .into_iter()
        .map(|job| {
            let mut spec = job.spec;
            spec.trials = 150;
            let cell = engine.run_spec(&spec, &mut NullSink);
            cell.sharded().expect("sharded cell").success_rate().value()
        })
        .collect();
    // Row anchors (paper: 0, 16.0, 51.8, 82.2, 95.0, 96.1, ~97).
    assert!(rates[0] < 0.02, "Basic ~0%: {}", rates[0]);
    assert!(
        (0.05..0.35).contains(&rates[1]),
        "+ClearIRQ ~16%: {}",
        rates[1]
    );
    assert!(
        (0.35..0.70).contains(&rates[2]),
        "+ReHype mechanisms ~52%: {}",
        rates[2]
    );
    assert!(
        (0.65..0.92).contains(&rates[3]),
        "+Sched consistency ~82%: {}",
        rates[3]
    );
    assert!(rates[4] > 0.88, "+Reprogram timer ~95%: {}", rates[4]);
    assert!(rates[6] > 0.92, "full NiLiHype ~97%: {}", rates[6]);
    // Monotone within noise: each rung may not drop by more than 5 points.
    for w in rates.windows(2) {
        assert!(w[1] >= w[0] - 0.05, "ladder regressed: {rates:?}");
    }
    // The two big jumps of the paper are present: ReHype mechanisms and
    // scheduling consistency each add at least 10 points.
    assert!(rates[2] - rates[1] > 0.10);
    assert!(rates[3] - rates[2] > 0.10);
}

#[test]
fn section4_port_ladder_tracks_paper_shape() {
    // Paper: 65% -> 84% -> 96%.
    let trials = 150;
    let engine = CampaignEngine::new();
    let rate = |spelling: &str| {
        campaign(
            &engine,
            SetupKind::OneAppVm(BenchKind::UnixBench),
            FaultType::Failstop,
            trials,
            2018,
            MechanismSpec::parse(spelling).expect("a mechanism spelling"),
        )
        .success_rate()
        .value()
    };
    // The port-* cells of ablations.manifest.
    let initial = rate("ReHype(-syscall_retry,-batched_retry,-save_fsgs,-nonidem_mitigation)");
    let plus_three = rate("ReHype(-nonidem_mitigation)");
    let full = rate("ReHype");
    assert!(
        (0.45..0.80).contains(&initial),
        "initial port ~65%: {initial}"
    );
    assert!(
        (0.65..0.92).contains(&plus_three),
        "+three enhancements ~84%: {plus_three}"
    );
    assert!(full > 0.90, "full ReHype ~96%: {full}");
    assert!(initial < plus_three && plus_three < full);
}

#[test]
fn figure2_shape_failstop_parity_and_code_gap() {
    let engine = CampaignEngine::new();
    let fig2 = |fault, trials, mechanism: MechanismSpec| {
        campaign(
            &engine,
            SetupKind::ThreeAppVm,
            fault,
            trials,
            2018,
            mechanism,
        )
    };
    // Failstop: the two mechanisms are essentially identical (paper Fig 2).
    let ni = fig2(FaultType::Failstop, 60, MechanismSpec::nilihype());
    let re = fig2(FaultType::Failstop, 60, MechanismSpec::rehype());
    let gap = (ni.success_rate().value() - re.success_rate().value()).abs();
    assert!(gap < 0.08, "failstop parity: {gap}");

    // Code faults: ReHype's reboot gives it an edge (paper: ~2%).
    let ni = fig2(FaultType::Code, 250, MechanismSpec::nilihype());
    let re = fig2(FaultType::Code, 250, MechanismSpec::rehype());
    assert!(
        re.success_rate().value() >= ni.success_rate().value() - 0.02,
        "ReHype should not lose on Code faults: {} vs {}",
        re.success_rate(),
        ni.success_rate()
    );
    assert!(
        ni.success_rate().value() > 0.70,
        "NiLiHype Code ~84%: {}",
        ni.success_rate()
    );
}

#[test]
fn ladder_enhancement_sets_are_cumulative_presets() {
    // The rung presets drive the published Table I; pin their composition.
    let top = LadderRung::ReactivateTimerEvents.enhancements();
    assert!(top.pfd_scan && top.clear_irq_count && top.unlock_static_locks);
    let basic = LadderRung::Basic.enhancements();
    assert!(!basic.hypercall_retry && !basic.clear_irq_count);
    let mid = LadderRung::ReHypeMechanisms.enhancements();
    assert!(mid.hypercall_retry && mid.clear_irq_count);
    assert!(!mid.sched_consistency && !mid.reprogram_timer);
}
