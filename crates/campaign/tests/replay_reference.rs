//! The three checked-in golden residual logs, replayed through the
//! batched stepping loop and cross-checked against the unbatched
//! reference oracle.
//!
//! [`TrialRecord::replay`] drives the standard trial loop: the one batched
//! loop with the injector as its stop rule, which fuses micro-op runs,
//! fast-forwards idle windows in bulk and spends the injector's micro-op
//! budget in fused spans. Each test here replays one golden log through
//! that path (any drift fails the replay's own bit-identity checks), then
//! runs the same recorded trial through the reference loop (one checked
//! step at a time, every step fed to the injector) and asserts the full
//! [`TrialResult`]s and trial records are equal — the two executions of a
//! recorded residual-failure trial may not differ in any observable way.

use nlh_campaign::{mechanism_for_name, BootCache, TrialRecord, TrialRunOptions};

fn replay_batched_and_reference(golden: &str) {
    let record = TrialRecord::from_text(golden).expect("golden log parses");
    let mech = mechanism_for_name(&record.mechanism)
        .unwrap_or_else(|| panic!("golden log names unknown mechanism {}", record.mechanism));
    let cache = BootCache::new();

    // Batched path: `replay` itself verifies the trigger draws, injection
    // point, step count and outcome against the record.
    let batched = record
        .replay(mech.as_ref(), &cache)
        .expect("golden trial replays bit-identically through the batched loop");

    // Reference cross-check: same recorded trigger and steering, one
    // checked step at a time.
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
        nlh_campaign::run_trial_with(hv, &layout, &record.config, mech.as_ref(), opts);
    assert_eq!(
        batched, reference,
        "batched and reference loops diverged replaying a golden residual log"
    );
    assert_eq!(
        reference_record.to_text(),
        golden,
        "the reference loop does not reproduce the golden log"
    );
}

#[test]
fn golden_residual_replays_equal_reference() {
    replay_batched_and_reference(include_str!("data/golden_residual_trial.log"));
}

#[test]
fn golden_sched_residual_replays_equal_reference() {
    replay_batched_and_reference(include_str!("data/golden_sched_residual_trial.log"));
}

#[test]
fn golden_virtio_residual_replays_equal_reference() {
    replay_batched_and_reference(include_str!("data/golden_virtio_residual_trial.log"));
}
