//! Recovery plans: two mechanisms whose plans for a machine are equal and
//! `Some` must leave bit-identical machines, because a trial group runs
//! the post-recovery run once for all of them. Every pair of mechanisms a
//! manifest can name is recovered on real fail-stop detection machines of
//! setups with and without virtio devices.

use std::cell::RefCell;

use nlh_campaign::{
    run_trial_with, BenchKind, BootCache, MechanismSpec, SetupKind, TrialConfig, TrialRunOptions,
};
use nlh_core::{LadderRung, RecoveryError, RecoveryMechanism, RecoveryReport};
use nlh_hv::hypercalls::OpSupport;
use nlh_hv::Hypervisor;
use nlh_inject::FaultType;

/// Every mechanism `MechanismSpec` names: the eight rungs, NiLiHype,
/// NiLiHype-NoSchedFix and ReHype.
fn mechanisms() -> Vec<Box<dyn RecoveryMechanism>> {
    LadderRung::ALL
        .iter()
        .map(|&rung| MechanismSpec::rung(rung))
        .chain(
            ["NiLiHype", "NiLiHype-NoSchedFix", "ReHype"]
                .iter()
                .map(|name| MechanismSpec::parse(name).expect("a named mechanism")),
        )
        .map(|spec| spec.build())
        .collect()
}

/// A probe that keeps a copy of the machine it is asked to recover and
/// ends the trial there.
struct Capture<'a> {
    support: &'a dyn RecoveryMechanism,
    machine: RefCell<Option<Hypervisor>>,
}

impl RecoveryMechanism for Capture<'_> {
    fn name(&self) -> &str {
        "capture"
    }

    fn op_support(&self) -> OpSupport {
        self.support.op_support()
    }

    fn recover(&self, hv: &mut Hypervisor) -> Result<RecoveryReport, RecoveryError> {
        *self.machine.borrow_mut() = Some(hv.clone());
        Err(RecoveryError::RecoveryRoutineCorrupted)
    }
}

/// The fail-stop trial's machine at its first detection, run with the
/// normal-operation support of `support`.
fn detection_machine(
    cache: &BootCache,
    setup: SetupKind,
    seed: u64,
    support: &dyn RecoveryMechanism,
) -> Hypervisor {
    let cfg = TrialConfig::new(setup, FaultType::Failstop, seed);
    let (hv, layout) = cache.checkout(&cfg.machine, setup, seed);
    let probe = Capture {
        support,
        machine: RefCell::new(None),
    };
    run_trial_with(hv, &layout, &cfg, &probe, TrialRunOptions::default());
    let machine = probe.machine.into_inner();
    machine.expect("a fail-stop fault is detected")
}

#[test]
fn equal_plans_leave_equal_machines() {
    let cache = BootCache::new();
    let mechs = mechanisms();
    let below = &mechs[LadderRung::ALL.len() - 2];
    let top = &mechs[LadderRung::ALL.len() - 1];
    assert_eq!(below.name(), "Rung(ReactivateTimerEvents)");
    let mut shared_pairs = 0;
    for (setup, has_virtio) in [
        (SetupKind::OneAppVm(BenchKind::UnixBench), false),
        (SetupKind::TwoAppVmVswitch, true),
        (SetupKind::ThreeAppVm, false),
    ] {
        for seed in [5, 2018, 9001] {
            // One detection machine per normal-operation support: the run
            // up to detection depends on the mechanism only through it.
            let mut supports: Vec<OpSupport> = Vec::new();
            for support in &mechs {
                if supports.contains(&support.op_support()) {
                    continue;
                }
                supports.push(support.op_support());
                let hv = detection_machine(&cache, setup, seed, support.as_ref());
                let label = format!("{setup:?}/{seed}/{:?}", support.op_support());
                assert_eq!(
                    below.plan(&hv) == top.plan(&hv),
                    !has_virtio,
                    "{label}: the top two rungs share a plan exactly without virtio"
                );
                let recovered: Vec<_> = mechs
                    .iter()
                    .map(|m| {
                        let mut copy = hv.clone();
                        let ok = m.recover(&mut copy).is_ok();
                        (m.plan(&hv), ok, copy.state_digest())
                    })
                    .collect();
                for (a, (plan_a, ok_a, digest_a)) in recovered.iter().enumerate() {
                    for (b, (plan_b, ok_b, digest_b)) in recovered.iter().enumerate().skip(a + 1) {
                        if plan_a.is_none() || plan_a != plan_b {
                            continue;
                        }
                        shared_pairs += 1;
                        let pair = format!("{label}: {} and {}", mechs[a].name(), mechs[b].name());
                        assert_eq!(ok_a, ok_b, "{pair}: recovery outcome");
                        assert_eq!(digest_a, digest_b, "{pair}: recovered machine");
                    }
                }
            }
        }
    }
    assert!(shared_pairs > 0, "some pairs share a plan");
}
