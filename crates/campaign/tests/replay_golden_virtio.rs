//! Golden record: a known mid-virtqueue residual failure, checked in as
//! text.
//!
//! `data/golden_virtio_residual_trial.log` was written by
//! `replay --setup vswitch --fault Code --steer VirtioMmio --seed 2020
//! --out ...` — a 2AppVM vswitch trial whose Code fault is held for the
//! `VirtioMmio` queue-notify handler and lands mid-virtqueue-transaction
//! (op 1 of 13). Full NiLiHype recovers — the record shows the `Repair
//! virtqueue ring consistency` phase running — but the propagated
//! corruption still takes down an AppVM, classifying as
//! `RecoveryFailure`. CI replays it on every push: any drift in the
//! virtio device models, the vswitch forwarding path, the steered
//! injector, or the ring-repair step breaks bit-identical replay and this
//! test names the divergence.
//!
//! To regenerate after an *intentional* behaviour change:
//! `cargo run --release -p nlh-experiments --bin replay -- \
//!     --setup vswitch --fault Code --steer VirtioMmio --seed 2020 \
//!     --out crates/campaign/tests/data/golden_virtio_residual_trial.log`

use nlh_campaign::{BootCache, MechanismSpec, TrialClass, TrialRecord};
use nlh_hv::HandlerKind;

const GOLDEN: &str = include_str!("data/golden_virtio_residual_trial.log");

#[test]
fn golden_virtio_residual_failure_replays_identically() {
    let record = TrialRecord::from_text(GOLDEN).expect("golden log parses");
    assert_eq!(record.steer_handler, Some(HandlerKind::VirtioMmio));
    let point = record.injection.expect("golden log records an injection");
    assert_eq!(
        point.handler,
        HandlerKind::VirtioMmio,
        "the steered fault must land inside the queue-notify handler"
    );
    assert!(
        point.op_index > 0 && point.op_index < point.program_len,
        "mid-transaction: {} of {}",
        point.op_index,
        point.program_len
    );
    // The repair step ran: the rung is active even though this trial still
    // fails for other reasons.
    assert!(
        record
            .events
            .iter()
            .any(|e| e.detail.starts_with("Repair virtqueue ring consistency")),
        "golden log must show the ring-repair recovery phase"
    );

    let mech = MechanismSpec::parse(&record.mechanism)
        .map(|m| m.build())
        .unwrap_or_else(|| panic!("golden log names unknown mechanism {}", record.mechanism));
    let cache = BootCache::new();
    let result = record
        .replay(mech.as_ref(), &cache)
        .expect("golden virtio trial replays bit-identically");

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
