//! **Coverage-guided vs uniform fault campaign** — the steering
//! comparison behind EXPERIMENTS.md's table.
//!
//! Runs the same fixed-seed trial corpus twice — once with uniform
//! trigger draws over `[0, MAX_TRIGGER_OPS)`, once with the
//! coverage-guided steering — and reports trials-to-first-residual-
//! failure, total failures found, and cell coverage for each mode.
//! `--json FILE` writes the guided run's final coverage map (the CI
//! artifact).
//!
//! Defaults: 1AppVM / UnixBench / fail-stop / full NiLiHype, 120 trials,
//! 8 windows, seed 2018.

use nlh_campaign::{
    BenchKind, CampaignEngine, CampaignSpec, CellOutput, ExecMode, NullSink, SampledCampaign,
    SamplingMode, SetupKind, DEFAULT_OPS_WINDOWS,
};
use nlh_experiments::hr;
use nlh_inject::FaultType;

struct Args {
    trials: u64,
    seed: u64,
    windows: usize,
    json: Option<String>,
}

fn parse_args() -> Args {
    let mut out = Args {
        trials: 120,
        seed: 2018,
        windows: DEFAULT_OPS_WINDOWS,
        json: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let mut val = |name: &str| it.next().unwrap_or_else(|| panic!("{name} needs a value"));
        match a.as_str() {
            "--trials" => out.trials = val("--trials").parse().expect("--trials needs an integer"),
            "--seed" => out.seed = val("--seed").parse().expect("--seed needs an integer"),
            "--windows" => {
                out.windows = val("--windows")
                    .parse()
                    .expect("--windows needs an integer")
            }
            "--json" => out.json = Some(val("--json")),
            "--help" | "-h" => {
                eprintln!("options: [--trials N] [--seed S] [--windows W] [--json FILE]");
                std::process::exit(0);
            }
            other => panic!("unknown option {other}; try --help"),
        }
    }
    out
}

fn describe(label: &str, c: &SampledCampaign) {
    let first = c
        .first_failure_trial
        .map(|i| format!("trial {}", i + 1))
        .unwrap_or_else(|| "never".to_string());
    println!(
        "{label:<8} first residual failure: {first:<10} failures: {:<4} successes: {:<4} covered cells: {}/{}",
        c.failures,
        c.successes,
        c.coverage.covered_cells(),
        nlh_hv::HandlerKind::ALL.len() * c.coverage.windows(),
    );
}

fn main() {
    let args = parse_args();
    let trials = args.trials;
    let windows = args.windows;
    let setup = SetupKind::OneAppVm(BenchKind::UnixBench);
    let fault = FaultType::Failstop;

    println!("Coverage-guided vs uniform trigger sampling");
    println!(
        "(1AppVM, UnixBench, fail-stop, full NiLiHype, {trials} trials, {windows} ops windows, seed {})",
        args.seed
    );
    hr();

    let engine = CampaignEngine::new();
    let run = |sampling: SamplingMode| -> SampledCampaign {
        let mut spec = CampaignSpec::new(format!("{sampling:?}"), setup, fault, trials);
        spec.seed = args.seed;
        spec.mode = ExecMode::Sampled {
            windows,
            sampling,
            steer_handler: None,
            depth_cycle: 1,
        };
        match engine.run_spec(&spec, &mut NullSink).output {
            CellOutput::Sampled(s) => s,
            CellOutput::Sharded(_) => unreachable!("sampled spec"),
        }
    };
    let uniform = run(SamplingMode::Uniform);
    let guided = run(SamplingMode::CoverageGuided);

    describe("uniform", &uniform);
    describe("guided", &guided);
    hr();

    println!("guided coverage map (injections/failures per handler x ops-window cell):");
    print!("{}", guided.coverage);

    if let (Some(u), Some(g)) = (uniform.first_failure_trial, guided.first_failure_trial) {
        hr();
        println!(
            "first residual failure: guided after {} trials, uniform after {} trials",
            g + 1,
            u + 1
        );
    }

    if let Some(path) = &args.json {
        std::fs::write(path, guided.coverage.to_json())
            .unwrap_or_else(|e| panic!("write {path}: {e}"));
        println!("coverage map written to {path}");
    }
}
