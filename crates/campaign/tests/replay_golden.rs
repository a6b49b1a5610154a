//! Golden record: a known residual-failure trial, checked in as text.
//!
//! `data/golden_residual_trial.log` was written by
//! `replay --seed 3 --out ...` — a 1AppVM / UnixBench / fail-stop trial
//! under full NiLiHype whose recovery completes but whose machine panics
//! again right after (`BUG: use count underflow`), classifying as
//! `RecoveryFailure`. CI replays it on every push: if the simulator's step
//! sequence, the injector's RNG draws, or the recovery model drift in any
//! observable way, the replay stops being bit-identical and this test
//! names the divergence.
//!
//! To regenerate after an *intentional* behaviour change:
//! `cargo run --release -p nlh-experiments --bin replay -- --seed 3 \
//!     --out crates/campaign/tests/data/golden_residual_trial.log`

use nlh_campaign::{BootCache, MechanismSpec, TrialClass, TrialRecord};

const GOLDEN: &str = include_str!("data/golden_residual_trial.log");

#[test]
fn golden_residual_failure_replays_identically() {
    let record = TrialRecord::from_text(GOLDEN).expect("golden log parses");
    let mech = MechanismSpec::parse(&record.mechanism)
        .map(|m| m.build())
        .unwrap_or_else(|| panic!("golden log names unknown mechanism {}", record.mechanism));

    let cache = BootCache::new();
    let result = record
        .replay(mech.as_ref(), &cache)
        .expect("golden trial replays bit-identically");

    // The outcome class is pinned in the log itself; `replay` has already
    // verified the injection point, step count and class against the file.
    // Re-assert the headline facts here so a drift reads as a plain
    // assertion, not only as a replay error.
    assert!(
        matches!(&result.class, TrialClass::RecoveryFailure(r) if r.starts_with("post-recovery failure:")),
        "golden trial is a residual failure, got {:?}",
        result.class
    );
    let outcome = record
        .outcome
        .as_ref()
        .expect("golden log records an outcome");
    assert_eq!(result.class, outcome.class);
    assert_eq!(result.steps, outcome.steps);
    assert_eq!(result.injection, outcome.injection);
}
