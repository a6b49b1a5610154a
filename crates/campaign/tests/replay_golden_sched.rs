//! Golden record: a known mid-scheduler-program residual failure at 8:1
//! overcommit, checked in as text.
//!
//! `data/golden_sched_residual_trial.log` was written by
//! `replay --setup oc8 --fault Code --steer Scheduler --steer-depth 9
//! --seed 2277 --out ...` — an 8:1 overcommit trial whose Code fault is
//! held for the `Scheduler` handler and then delayed nine further
//! micro-ops, landing deep inside a credit context-switch program (op 12
//! of 18, well past the first metadata mutation at op 4). Full NiLiHype
//! recovers — the record shows the `Ensure consistency within scheduling
//! metadata` phase running — but the propagated corruption still takes
//! down an AppVM, classifying as `RecoveryFailure`. CI replays it on
//! every push: any drift in the credit scheduler, its micro-op program
//! shapes, the depth-steered injector, or the consistency rung breaks
//! bit-identical replay and this test names the divergence.
//!
//! To regenerate after an *intentional* behaviour change:
//! `cargo run --release -p nlh-experiments --bin replay -- \
//!     --setup oc8 --fault Code --steer Scheduler --steer-depth 9 \
//!     --seed 2277 \
//!     --out crates/campaign/tests/data/golden_sched_residual_trial.log`

use nlh_campaign::{BootCache, MechanismSpec, TrialClass, TrialRecord};
use nlh_hv::HandlerKind;

const GOLDEN: &str = include_str!("data/golden_sched_residual_trial.log");

#[test]
fn golden_sched_residual_failure_replays_identically() {
    let record = TrialRecord::from_text(GOLDEN).expect("golden log parses");
    assert_eq!(record.steer_handler, Some(HandlerKind::Scheduler));
    assert!(
        record.steer_depth > 0,
        "the golden trial uses depth steering to pass the mutation ops"
    );
    let point = record.injection.expect("golden log records an injection");
    assert_eq!(
        point.handler,
        HandlerKind::Scheduler,
        "the steered fault must land inside a scheduler program"
    );
    assert!(
        point.op_index > 4 && point.op_index < point.program_len,
        "past the first metadata mutation: {} of {}",
        point.op_index,
        point.program_len
    );
    // The repair step ran: the rung is active even though this trial still
    // fails for other reasons.
    assert!(
        record.events.iter().any(|e| e
            .detail
            .starts_with("Ensure consistency within scheduling metadata")),
        "golden log must show the scheduler-consistency recovery phase"
    );

    let mech = MechanismSpec::parse(&record.mechanism)
        .map(|m| m.build())
        .unwrap_or_else(|| panic!("golden log names unknown mechanism {}", record.mechanism));
    let cache = BootCache::new();
    let result = record
        .replay(mech.as_ref(), &cache)
        .expect("golden sched trial replays bit-identically");

    assert_eq!(
        result.class,
        TrialClass::RecoveryFailure("the AppVM was affected".into())
    );
    let outcome = record
        .outcome
        .as_ref()
        .expect("golden log records an outcome");
    assert_eq!(result.class, outcome.class);
    assert_eq!(result.steps, outcome.steps);
    assert_eq!(result.injection, outcome.injection);
}
