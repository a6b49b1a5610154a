//! The three checked-in golden residual-failure records, each replayed
//! through the batched stepping loop and through the unbatched reference
//! oracle.
//!
//! [`TrialRecord::replay`] drives the standard trial loop: the one batched
//! loop with the injector as its stop rule, which fuses micro-op runs,
//! fast-forwards idle windows in bulk and spends the injector's micro-op
//! budget in fused spans. Its own checks fail on any drift in the trigger
//! draws, the injection point or the outcome. The reference loop then
//! runs the same recorded trial one checked step at a time, every step
//! fed to the injector: its [`TrialResult`](nlh_campaign::TrialResult)
//! must equal the batched one, and its record must reproduce the log byte
//! for byte. CI replays all three on every push, so any drift in the
//! simulator's step sequence, the injector's RNG draws or the recovery
//! model names itself here.
//!
//! Each log was written by `replay --out`. To regenerate one after an
//! *intentional* behaviour change, rerun its command (in the table below)
//! as `cargo run --release -p nlh-experiments --bin replay -- <args> \
//!     --out crates/campaign/tests/data/<file>`.

use nlh_campaign::{
    run_trial_with, BootCache, MechanismSpec, TrialClass, TrialRecord, TrialRunOptions,
};
use nlh_hv::HandlerKind;

/// One golden log and what it must show.
struct Golden {
    log: &'static str,
    /// The handler the fault is held for, and the op index the fault
    /// must land past inside that handler's program.
    steer: Option<(HandlerKind, usize)>,
    /// The fault is also delayed past the handler's entry
    /// (`steer_depth > 0`).
    depth_steered: bool,
    /// A recovery phase the record's events must show running.
    phase: Option<&'static str>,
    /// The expected outcome class.
    class: fn(&TrialClass) -> bool,
}

/// `replay --seed 3`: a 1AppVM / UnixBench / fail-stop trial under full
/// NiLiHype whose recovery completes but whose machine panics again right
/// after (`BUG: use count underflow`).
const RESIDUAL: Golden = Golden {
    log: include_str!("data/golden_residual_trial.log"),
    steer: None,
    depth_steered: false,
    phase: None,
    class: |c| matches!(c, TrialClass::RecoveryFailure(r) if r.starts_with("post-recovery failure:")),
};

/// `replay --setup oc8 --fault Code --steer Scheduler --steer-depth 9
/// --seed 2277`: an 8:1 overcommit trial whose Code fault lands deep
/// inside a credit context-switch program (op 12 of 18, past the first
/// metadata mutation at op 4). The scheduler-consistency rung runs, but
/// the propagated corruption still takes down an AppVM.
const SCHED: Golden = Golden {
    log: include_str!("data/golden_sched_residual_trial.log"),
    steer: Some((HandlerKind::Scheduler, 4)),
    depth_steered: true,
    phase: Some("Ensure consistency within scheduling metadata"),
    class: |c| *c == TrialClass::RecoveryFailure("the AppVM was affected".into()),
};

/// `replay --setup vswitch --fault Code --steer VirtioMmio --seed 2020`:
/// a 2AppVM vswitch trial whose Code fault lands mid-virtqueue-transaction
/// in the queue-notify handler (op 1 of 13). The ring-repair rung runs,
/// but the propagated corruption still takes down an AppVM.
const VIRTIO: Golden = Golden {
    log: include_str!("data/golden_virtio_residual_trial.log"),
    steer: Some((HandlerKind::VirtioMmio, 0)),
    depth_steered: false,
    phase: Some("Repair virtqueue ring consistency"),
    class: |c| *c == TrialClass::RecoveryFailure("the AppVM was affected".into()),
};

fn check(golden: &Golden) {
    let record = TrialRecord::from_text(golden.log).expect("golden log parses");
    assert_eq!(record.steer_handler, golden.steer.map(|(h, _)| h));
    assert_eq!(record.steer_depth > 0, golden.depth_steered);
    if let Some((handler, past)) = golden.steer {
        let point = record.injection.expect("golden log records an injection");
        assert_eq!(
            point.handler, handler,
            "the steered fault lands in its handler"
        );
        assert!(
            point.op_index > past && point.op_index < point.program_len,
            "inside the program past op {past}: {} of {}",
            point.op_index,
            point.program_len
        );
    }
    if let Some(phase) = golden.phase {
        assert!(
            record.events.iter().any(|e| e.detail.starts_with(phase)),
            "golden log must show the {phase:?} recovery phase"
        );
    }

    let mech = MechanismSpec::parse(&record.mechanism)
        .map(|m| m.build())
        .unwrap_or_else(|| panic!("golden log names unknown mechanism {}", record.mechanism));
    let cache = BootCache::new();
    let batched = record
        .replay(mech.as_ref(), &cache)
        .expect("golden trial replays bit-identically through the batched loop");
    // `replay` has already checked these against the log; re-asserting
    // them makes a drift read as a plain assertion.
    assert!((golden.class)(&batched.class), "got {:?}", batched.class);
    let outcome = record
        .outcome
        .as_ref()
        .expect("golden log records an outcome");
    assert_eq!(batched.class, outcome.class);
    assert_eq!(batched.steps, outcome.steps);
    assert_eq!(batched.injection, outcome.injection);

    let (hv, layout) = cache.checkout(
        &record.config.machine,
        record.config.setup,
        record.config.seed,
    );
    let opts = TrialRunOptions {
        batched: false,
        trigger_ops: Some(record.trigger_ops),
        steer_handler: record.steer_handler,
        steer_depth: record.steer_depth,
        ..TrialRunOptions::default()
    };
    let (reference, reference_record, _) =
        run_trial_with(hv, &layout, &record.config, mech.as_ref(), opts);
    assert_eq!(batched, reference, "batched and reference loops diverged");
    assert_eq!(
        reference_record.to_text(),
        golden.log,
        "the reference loop does not reproduce the golden log"
    );
}

#[test]
fn golden_residual_replays_equal_reference() {
    check(&RESIDUAL);
}

#[test]
fn golden_sched_residual_replays_equal_reference() {
    check(&SCHED);
}

#[test]
fn golden_virtio_residual_replays_equal_reference() {
    check(&VIRTIO);
}
