//! The trial tree: a group of siblings that differ in fault, trigger
//! window, steer handler, steer depth and mechanism runs once up to its
//! arming step, branches there per injector, and forks each branch per
//! mechanism at its first detection. Every sibling must still get exactly
//! what `run_trial_with` returns for it alone: the result, the record's
//! text and the final machine's state digest.

use nlh_campaign::{
    run_trial_group, run_trial_with, ArmedTrial, BootCache, MechanismSpec, SetupKind, Sibling,
    TrialConfig, TrialRunOptions,
};
use nlh_core::RecoveryMechanism;
use nlh_hv::HandlerKind;
use nlh_inject::FaultType;

/// The sibling shapes of one trial: `(fault, trigger window, steer depth,
/// mechanism index)`, all steered into `steer` when the depth is `Some`.
/// The first two share one injector and fork only at detection. The
/// window `(0, 1)` draws an ops budget of 0: the injector counts nothing
/// and fires on the first mid-program micro-op from the arming step on.
/// (The arming step itself is almost always a guest slice: it injected in
/// none of 3,000 seeds over six setups. `nlh-inject`'s
/// `arming_step_fed_later_equals_running_through_it` pins the case where
/// it does inject.)
type Shape = (FaultType, Option<(u64, u64)>, Option<u64>, usize);

const SHAPES: [Shape; 7] = [
    (FaultType::Failstop, None, None, 0),
    (FaultType::Failstop, None, None, 1),
    (FaultType::Failstop, Some((0, 1)), None, 1),
    (FaultType::Register, Some((0, 1)), None, 0),
    (FaultType::Code, Some((250, 500)), Some(0), 0),
    (FaultType::Code, Some((250, 500)), Some(3), 1),
    (FaultType::Register, Some((1_500, 2_000)), Some(1), 1),
];

fn siblings<'a>(
    setup: SetupKind,
    seed: u64,
    steer: HandlerKind,
    mechs: &[&'a dyn RecoveryMechanism],
) -> Vec<Sibling<'a>> {
    SHAPES
        .iter()
        .map(|&(fault, trigger_ops, depth, m)| Sibling {
            config: TrialConfig::new(setup, fault, seed),
            mechanism: mechs[m],
            opts: TrialRunOptions {
                trigger_ops,
                steer_handler: depth.map(|_| steer),
                steer_depth: depth.unwrap_or(0),
                ..TrialRunOptions::default()
            },
        })
        .collect()
}

/// Seeds on the three setups the steered and Figure 2 workloads run, each
/// group trial against every sibling run alone, both through
/// `run_trial_group` and through an [`ArmedTrial`] forked later.
#[test]
fn every_sibling_equals_its_trial_alone() {
    let built: Vec<Box<dyn RecoveryMechanism>> = ["NiLiHype", "NiLiHype-NoSchedFix"]
        .iter()
        .map(|m| MechanismSpec::parse(m).unwrap().build())
        .collect();
    let mechs: Vec<&dyn RecoveryMechanism> = built.iter().map(|m| m.as_ref()).collect();
    let cache = BootCache::new();
    let mut budget_zero = 0;
    for (setup, steer, seeds) in [
        (
            SetupKind::TwoAppVmVswitch,
            HandlerKind::VirtioMmio,
            2018..2022,
        ),
        (SetupKind::Overcommit(4), HandlerKind::Scheduler, 40..43),
        (SetupKind::ThreeAppVm, HandlerKind::Hypercall, 77..79),
    ] {
        for seed in seeds {
            let group = siblings(setup, seed, steer, &mechs);
            let machine = &group[0].config.machine;
            let mut finished = vec![None; group.len()];
            let (hv, layout) = cache.checkout(machine, setup, seed);
            run_trial_group(hv, &layout, &group, |k, r, record, hv| {
                assert!(finished[k].is_none(), "sibling {k} finished twice");
                finished[k] = Some((r, record.to_text(), hv.state_digest()));
            });
            let mut forked = vec![None; group.len()];
            let (hv, layout) = cache.checkout(machine, setup, seed);
            ArmedTrial::run(hv, &group[3]).fork(&layout, &group, |k, r, record, hv| {
                forked[k] = Some((r, record.to_text(), hv.state_digest()));
            });
            for (k, s) in group.iter().enumerate() {
                let label = format!("{setup:?}/{seed}/sibling {k}");
                let (hv, layout) = cache.checkout(machine, setup, seed);
                let (alone, record, hv) =
                    run_trial_with(hv, &layout, &s.config, s.mechanism, s.opts.clone());
                let want = Some((alone, record.to_text(), hv.state_digest()));
                assert_eq!(finished[k], want, "{label}: run_trial_group");
                assert_eq!(forked[k], want, "{label}: ArmedTrial::fork");
                budget_zero += u32::from(record.ops_budget == 0 && record.injection.is_some());
            }
        }
    }
    assert_eq!(budget_zero, 2 * 9, "every budget-0 sibling injects");
}
