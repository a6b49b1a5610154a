//! End-to-end integration tests spanning all crates: build a system, run
//! workloads, inject faults, recover, classify.

use nilihype::campaign::{
    build_system, run_trial_with, BenchKind, CampaignEngine, CampaignResult, CampaignSpec,
    NullSink, SetupKind, TrialClass, TrialConfig, TrialResult, TrialRunOptions,
};
use nilihype::inject::FaultType;
use nilihype::recovery::{LadderRung, MechanismSpec, Microreset, ReHypeConfig, RecoveryMechanism};

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

/// One trial on a freshly booted system.
fn cold_trial(cfg: &TrialConfig, mech: &dyn RecoveryMechanism) -> TrialResult {
    let (hv, layout) = build_system(cfg.machine.clone(), cfg.setup, cfg.seed);
    run_trial_with(hv, &layout, cfg, mech, TrialRunOptions::default()).0
}

#[test]
fn fault_free_runs_complete_cleanly() {
    use nilihype::hv::MachineConfig;
    for setup in [
        SetupKind::OneAppVm(BenchKind::UnixBench),
        SetupKind::OneAppVm(BenchKind::BlkBench),
        SetupKind::OneAppVm(BenchKind::NetBench),
        SetupKind::ThreeAppVm,
    ] {
        let (mut hv, layout) = nilihype::campaign::build_system(MachineConfig::small(), setup, 5);
        let end = nilihype::sim::SimTime::ZERO + setup.trial_duration();
        hv.run_until(end);
        assert!(
            hv.detection().is_none(),
            "{setup:?}: fault-free run must not detect anything: {:?}",
            hv.detection()
        );
        for (dom, kind) in &layout.initial_apps {
            let v = hv.domains[dom.index()].verdict(end, end);
            assert!(v.is_ok(), "{setup:?}/{kind}: {v:?}");
        }
    }
}

#[test]
fn nilihype_recovers_most_failstop_faults_three_appvm() {
    let r = campaign(
        &CampaignEngine::new(),
        SetupKind::ThreeAppVm,
        FaultType::Failstop,
        40,
        77,
        MechanismSpec::nilihype(),
    );
    assert_eq!(r.detected, 40);
    assert!(
        r.success_rate().value() > 0.85,
        "NiLiHype failstop: {}",
        r.success_rate()
    );
    assert!(r.no_vmf_rate().value() > 0.75, "noVMF: {}", r.no_vmf_rate());
}

#[test]
fn rehype_recovers_most_failstop_faults_three_appvm() {
    let r = campaign(
        &CampaignEngine::new(),
        SetupKind::ThreeAppVm,
        FaultType::Failstop,
        40,
        77,
        MechanismSpec::rehype(),
    );
    assert!(
        r.success_rate().value() > 0.85,
        "ReHype failstop: {}",
        r.success_rate()
    );
}

#[test]
fn code_faults_recover_less_often_than_failstop() {
    // Section VII-A: Code faults have the lowest recovery rate (longer
    // detection latency, more propagation).
    let engine = CampaignEngine::new();
    let failstop = campaign(
        &engine,
        SetupKind::ThreeAppVm,
        FaultType::Failstop,
        60,
        99,
        MechanismSpec::nilihype(),
    );
    let code = campaign(
        &engine,
        SetupKind::ThreeAppVm,
        FaultType::Code,
        180,
        99,
        MechanismSpec::nilihype(),
    );
    assert!(
        code.success_rate().value() < failstop.success_rate().value(),
        "code {} !< failstop {}",
        code.success_rate(),
        failstop.success_rate()
    );
}

#[test]
fn register_faults_match_paper_manifestation_breakdown() {
    let r = campaign(
        &CampaignEngine::new(),
        SetupKind::ThreeAppVm,
        FaultType::Register,
        300,
        123,
        MechanismSpec::nilihype(),
    );
    let (nm, sdc, det) = r.manifestation_breakdown();
    assert!((nm - 0.748).abs() < 0.08, "non-manifested {nm}");
    assert!((sdc - 0.056).abs() < 0.05, "sdc {sdc}");
    assert!((det - 0.196).abs() < 0.08, "detected {det}");
}

#[test]
fn basic_microreset_never_recovers() {
    // Table I, row 1: the basic mechanism (discard and resume) always fails.
    let r = campaign(
        &CampaignEngine::new(),
        SetupKind::OneAppVm(BenchKind::UnixBench),
        FaultType::Failstop,
        40,
        3,
        MechanismSpec::rung(LadderRung::Basic),
    );
    assert_eq!(r.successes, 0, "basic must never succeed");
}

#[test]
fn trials_are_fully_deterministic() {
    for fault in FaultType::ALL {
        let cfg = TrialConfig::new(SetupKind::ThreeAppVm, fault, 31337);
        let mech = Microreset::nilihype();
        let a = cold_trial(&cfg, &mech);
        let b = cold_trial(&cfg, &mech);
        assert_eq!(a.class, b.class, "{fault}");
        assert_eq!(a.injection, b.injection, "{fault}");
    }
}

#[test]
fn rehype_without_bootline_log_always_fails() {
    let mut config = ReHypeConfig::full();
    config.bootline_log = false;
    let r = campaign(
        &CampaignEngine::new(),
        SetupKind::OneAppVm(BenchKind::UnixBench),
        FaultType::Failstop,
        10,
        7,
        MechanismSpec::Microreboot(config),
    );
    assert_eq!(r.successes, 0);
    assert!(r.failure_reasons.keys().any(|k| k.contains("boot-line")));
}

#[test]
fn blkbench_setup_recovers_under_failstop() {
    // The block path (AppVM -> PrivVM driver -> completion) survives
    // recovery: requests are retried, the driver resumes.
    let r = campaign(
        &CampaignEngine::new(),
        SetupKind::OneAppVm(BenchKind::BlkBench),
        FaultType::Failstop,
        30,
        55,
        MechanismSpec::nilihype(),
    );
    assert!(
        r.success_rate().value() > 0.7,
        "BlkBench failstop: {}",
        r.success_rate()
    );
}

#[test]
fn netbench_setup_recovers_under_failstop() {
    let r = campaign(
        &CampaignEngine::new(),
        SetupKind::OneAppVm(BenchKind::NetBench),
        FaultType::Failstop,
        30,
        56,
        MechanismSpec::nilihype(),
    );
    assert!(
        r.success_rate().value() > 0.7,
        "NetBench failstop: {}",
        r.success_rate()
    );
}

#[test]
fn classification_counts_are_consistent() {
    let r = campaign(
        &CampaignEngine::new(),
        SetupKind::ThreeAppVm,
        FaultType::Code,
        80,
        17,
        MechanismSpec::nilihype(),
    );
    assert_eq!(
        r.trials,
        r.non_manifested + r.sdc + r.detected,
        "every trial is classified exactly once"
    );
    let failures: u64 = r.failure_reasons.values().sum();
    assert_eq!(r.detected, r.successes + failures);
    assert!(r.no_vmf <= r.successes);
}

#[test]
fn single_trial_reports_recovery_details() {
    let cfg = TrialConfig::new(
        SetupKind::OneAppVm(BenchKind::UnixBench),
        FaultType::Failstop,
        4242,
    );
    let r = cold_trial(&cfg, &Microreset::nilihype());
    assert!(r.observations.detected);
    let report = r.recovery.expect("recovery ran");
    assert_eq!(report.mechanism, "NiLiHype");
    assert!(report.total.as_millis() < 5, "small machine scan is fast");
    assert!(matches!(
        r.class,
        TrialClass::RecoverySuccess { .. } | TrialClass::RecoveryFailure(_)
    ));
}

#[test]
fn shared_cpu_setup_runs_and_recovers() {
    // The paper's future-work configuration: two vCPUs share one CPU.
    use nilihype::hv::MachineConfig;
    let (mut hv, layout) =
        nilihype::campaign::build_system(MachineConfig::small(), SetupKind::TwoAppVmSharedCpu, 21);
    let end = nilihype::sim::SimTime::from_secs(12);
    hv.run_until(end);
    assert!(hv.detection().is_none());
    for (dom, kind) in &layout.initial_apps {
        assert!(
            hv.domains[dom.index()].verdict(end, end).is_ok(),
            "{kind} on a shared CPU must still complete"
        );
    }
    let r = campaign(
        &CampaignEngine::new(),
        SetupKind::TwoAppVmSharedCpu,
        FaultType::Failstop,
        30,
        21,
        MechanismSpec::nilihype(),
    );
    assert!(
        r.success_rate().value() > 0.8,
        "shared-CPU failstop: {}",
        r.success_rate()
    );
}

#[test]
fn hvm_guest_runs_without_syscall_forwarding() {
    use nilihype::hv::domain::{DomainKind, DomainSpec};
    use nilihype::hv::{CpuId, Hypervisor, MachineConfig};
    use nilihype::workloads::UnixBench;
    let mut hv = Hypervisor::new(MachineConfig::small(), 31);
    hv.add_boot_domain(DomainSpec {
        kind: DomainKind::AppHvm,
        pages: 128,
        pinned_cpu: CpuId(1),
        program: Box::new(UnixBench::new(
            1,
            nilihype::sim::SimDuration::from_secs(2),
            0.5,
        )),
    });
    let end = nilihype::sim::SimTime::from_secs(3);
    hv.run_until(end);
    assert!(hv.detection().is_none());
    assert!(hv.domains[0].verdict(end, end).is_ok());
    // HVM syscalls never produced a pending forwarded request.
    assert!(hv.domains[0].pending.is_none());
}
