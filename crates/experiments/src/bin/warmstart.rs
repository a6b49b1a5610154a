//! **Warm-start engine benchmark** — measures what the boot cache saves.
//!
//! Runs the same 1AppVM / UnixBench / fail-stop campaign twice — once
//! cold-booting every trial, once warm-starting from the engine's boot
//! cache — verifies the aggregate results are identical, and reports the
//! wall-clock speedup. Default 1000 trials (the paper's fail-stop campaign
//! size).

use nlh_campaign::{
    BenchKind, BootMode, CampaignEngine, CampaignResult, CampaignSpec, NullSink, SetupKind,
};
use nlh_experiments::{hr, print_latency, print_throughput, ExpOptions};
use nlh_inject::FaultType;

fn main() {
    let opts = ExpOptions::from_args();
    let trials = opts.count(1000, 1000);
    println!("Warm-start trial engine: cold boots vs boot-cache clones");
    println!("(1AppVM, UnixBench, fail-stop faults, {trials} trials per run)");
    hr();

    let engine = CampaignEngine::new();
    let run = |boot: BootMode| -> CampaignResult {
        let mut spec = CampaignSpec::new(
            format!("{boot:?}"),
            SetupKind::OneAppVm(BenchKind::UnixBench),
            FaultType::Failstop,
            trials,
        );
        spec.seed = opts.seed;
        spec.boot = boot;
        let cell = engine.run_spec(&spec, &mut NullSink);
        cell.sharded().expect("sharded cell").clone()
    };

    let cold = run(BootMode::Cold);
    print_throughput("cold", &cold.telemetry);
    let warm = run(BootMode::Warm);
    print_throughput("warm", &warm.telemetry);
    hr();

    assert_eq!(cold.successes, warm.successes, "results must be identical");
    assert_eq!(cold.detected, warm.detected, "results must be identical");
    assert_eq!(
        cold.telemetry.recovery_latency_us, warm.telemetry.recovery_latency_us,
        "simulated latency distributions must be identical"
    );
    println!(
        "identical results: {}/{} successful recoveries in both modes",
        warm.successes, warm.detected
    );
    println!(
        "setup time per trial: cold {:.1} us vs warm {:.1} us ({:.0}x less)",
        cold.telemetry.setup_nanos as f64 / trials as f64 / 1000.0,
        warm.telemetry.setup_nanos as f64 / trials as f64 / 1000.0,
        cold.telemetry.setup_nanos as f64 / warm.telemetry.setup_nanos.max(1) as f64,
    );
    println!(
        "campaign wall clock: cold {:.2} s vs warm {:.2} s ({:.2}x speedup)",
        cold.telemetry.wall_secs,
        warm.telemetry.wall_secs,
        cold.telemetry.wall_secs / warm.telemetry.wall_secs.max(1e-9),
    );
    print_latency("warm", &warm.telemetry);
}
