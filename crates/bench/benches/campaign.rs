//! End-to-end cost of fault-injection trials — the unit of work every
//! table/figure campaign repeats thousands of times.

use criterion::{criterion_group, criterion_main, Criterion};
use nlh_campaign::{
    build_system, run_trial_with, BenchKind, SetupKind, TrialConfig, TrialResult, TrialRunOptions,
};
use nlh_core::{Microreboot, Microreset, RecoveryMechanism};
use nlh_inject::FaultType;

/// One cold-booted trial: boot construction plus the trial body.
fn trial(cfg: &TrialConfig, mech: &dyn RecoveryMechanism) -> TrialResult {
    let (hv, layout) = build_system(cfg.machine.clone(), cfg.setup, cfg.seed);
    run_trial_with(hv, &layout, cfg, mech, TrialRunOptions::default()).0
}

fn bench_failstop_trial(c: &mut Criterion) {
    let mut group = c.benchmark_group("campaign/trial");
    group.sample_size(10);
    group.bench_function("one_appvm_failstop_nilihype", |b| {
        let mech = Microreset::nilihype();
        let mut seed = 0u64;
        b.iter(|| {
            seed += 1;
            let cfg = TrialConfig::new(
                SetupKind::OneAppVm(BenchKind::UnixBench),
                FaultType::Failstop,
                seed,
            );
            trial(&cfg, &mech)
        })
    });
    group.bench_function("one_appvm_failstop_rehype", |b| {
        let mech = Microreboot::rehype();
        let mut seed = 1_000u64;
        b.iter(|| {
            seed += 1;
            let cfg = TrialConfig::new(
                SetupKind::OneAppVm(BenchKind::UnixBench),
                FaultType::Failstop,
                seed,
            );
            trial(&cfg, &mech)
        })
    });
    group.bench_function("three_appvm_failstop_nilihype", |b| {
        let mech = Microreset::nilihype();
        let mut seed = 2_000u64;
        b.iter(|| {
            seed += 1;
            let cfg = TrialConfig::new(SetupKind::ThreeAppVm, FaultType::Failstop, seed);
            trial(&cfg, &mech)
        })
    });
    group.finish();
}

criterion_group!(benches, bench_failstop_trial);
criterion_main!(benches);
