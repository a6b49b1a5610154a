//! **Trial record / replay / bisect driver** — one-command debugging of
//! any recorded trial.
//!
//! Three modes:
//!
//! * `replay --seed S [--setup X] [--fault F] [--mech M] [--ops-lo A
//!   --ops-hi B]` — run the trial, print its event record, then re-run it
//!   from the boot cache and assert the replay reproduces the original
//!   `TrialResult` bit-identically (including the step count).
//! * `replay --log FILE` — load a record written by `--out` (or checked
//!   in under `tests/data/`), replay it, and assert the outcome class,
//!   injection point and step count all match the file.
//! * `... --bisect` — additionally bisect the trial against its
//!   fault-free reference execution and report the first divergent step.
//!
//! `--out FILE` writes the record's text form (how golden logs are made).
//! `--setup` and `--mech` take the campaign manifests' spellings, e.g.
//! `OneAppVm(UnixBench)`, `Overcommit(8)`, `NiLiHype`, `Rung(Basic)`.

use nlh_campaign::{
    bisect_trials, parse_setup, run_trial_with, BenchKind, BootCache, MechanismSpec, SetupKind,
    TrialConfig, TrialRecord, TrialRunOptions,
};
use nlh_hv::HandlerKind;
use nlh_inject::FaultType;

struct Args {
    seed: u64,
    setup: SetupKind,
    fault: FaultType,
    mech: MechanismSpec,
    ops: Option<(u64, u64)>,
    steer: Option<HandlerKind>,
    steer_depth: u64,
    log: Option<String>,
    out: Option<String>,
    bisect: bool,
}

fn parse_args() -> Args {
    let mut args = Args {
        seed: 2018,
        setup: SetupKind::OneAppVm(BenchKind::UnixBench),
        fault: FaultType::Failstop,
        mech: MechanismSpec::Nilihype,
        ops: None,
        steer: None,
        steer_depth: 0,
        log: None,
        out: None,
        bisect: false,
    };
    let mut ops_lo = None;
    let mut ops_hi = None;
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let mut val = |name: &str| it.next().unwrap_or_else(|| panic!("{name} needs a value"));
        match a.as_str() {
            "--seed" => args.seed = val("--seed").parse().expect("--seed needs an integer"),
            "--setup" => {
                let v = val("--setup");
                args.setup = parse_setup(&v)
                    .unwrap_or_else(|| panic!("unknown setup {v} (e.g. OneAppVm(UnixBench))"));
            }
            "--fault" => {
                let v = val("--fault");
                args.fault = FaultType::from_name(&v)
                    .unwrap_or_else(|| panic!("unknown fault {v} (Failstop|Register|Code)"));
            }
            "--mech" => {
                let v = val("--mech");
                args.mech = MechanismSpec::parse(&v)
                    .unwrap_or_else(|| panic!("unknown mechanism {v} (e.g. NiLiHype)"));
            }
            "--ops-lo" => ops_lo = Some(val("--ops-lo").parse::<u64>().expect("integer")),
            "--ops-hi" => ops_hi = Some(val("--ops-hi").parse::<u64>().expect("integer")),
            "--steer" => {
                let v = val("--steer");
                args.steer = Some(
                    HandlerKind::from_name(&v)
                        .unwrap_or_else(|| panic!("unknown handler {v} (e.g. VirtioMmio)")),
                );
            }
            "--steer-depth" => {
                args.steer_depth = val("--steer-depth")
                    .parse()
                    .expect("--steer-depth needs an integer")
            }
            "--log" => args.log = Some(val("--log")),
            "--out" => args.out = Some(val("--out")),
            "--bisect" => args.bisect = true,
            other => panic!("unknown argument {other}"),
        }
    }
    if let (Some(lo), Some(hi)) = (ops_lo, ops_hi) {
        args.ops = Some((lo, hi));
    }
    args
}

fn main() {
    let args = parse_args();
    let cache = BootCache::new();

    // Obtain the record: from a log file, or by running the trial fresh.
    let record = match &args.log {
        Some(path) => {
            let text =
                std::fs::read_to_string(path).unwrap_or_else(|e| panic!("cannot read {path}: {e}"));
            TrialRecord::from_text(&text).unwrap_or_else(|e| panic!("cannot parse {path}: {e}"))
        }
        None => {
            let config = TrialConfig::new(args.setup, args.fault, args.seed);
            let mech = args.mech.build();
            let (hv, layout) = cache.checkout(&config.machine, config.setup, config.seed);
            let opts = TrialRunOptions {
                trigger_ops: args.ops,
                steer_handler: args.steer,
                steer_depth: args.steer_depth,
                ..TrialRunOptions::default()
            };
            let (_, record, _) = run_trial_with(hv, &layout, &config, mech.as_ref(), opts);
            record
        }
    };

    println!("{}", record.to_text());

    if let Some(path) = &args.out {
        std::fs::write(path, record.to_text()).unwrap_or_else(|e| panic!("write {path}: {e}"));
        println!("record written to {path}");
    }

    // Replay from the boot cache and hold the record to its own claims.
    let mech = MechanismSpec::parse(&record.mechanism)
        .map(|m| m.build())
        .unwrap_or_else(|| panic!("record names unknown mechanism {}", record.mechanism));
    let result = record
        .replay(mech.as_ref(), &cache)
        .unwrap_or_else(|e| panic!("REPLAY DIVERGED: {e}"));
    println!(
        "replay OK: {:?} in {} steps (bit-identical to the record)",
        result.class, result.steps
    );

    if args.bisect {
        let reference = TrialRunOptions {
            inject: false,
            ..TrialRunOptions::default()
        };
        let steered = TrialRunOptions {
            trigger_ops: Some(record.trigger_ops),
            steer_handler: record.steer_handler,
            steer_depth: record.steer_depth,
            ..TrialRunOptions::default()
        };
        println!("\nbisecting against the fault-free reference execution...");
        match bisect_trials(
            (&record.config, &steered),
            (&record.config, &reference),
            mech.as_ref(),
            &cache,
        ) {
            None => println!(
                "no divergence: the injected fault never altered machine state \
                 (non-manifested injection)"
            ),
            Some(report) => {
                println!(
                    "first divergent step: {} (of {} / {} total steps; {} probes)",
                    report.divergent_step, report.a.steps, report.b.steps, report.probes
                );
                if let Some(p) = &record.injection {
                    println!(
                        "recorded injection point: cpu{} {} op {}/{} at {:?} (budget {} of {}..{})",
                        p.cpu.index(),
                        p.handler,
                        p.op_index,
                        p.program_len,
                        p.at,
                        p.ops_budget,
                        record.trigger_ops.0,
                        record.trigger_ops.1,
                    );
                }
            }
        }
    }
}
