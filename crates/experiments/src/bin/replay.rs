//! **Trial record / replay / bisect driver** — one-command debugging of
//! any recorded trial.
//!
//! Three modes:
//!
//! * `replay --seed S [--setup X] [--fault F] [--mech M] [--ops-lo A
//!   --ops-hi B]` — run the trial, print its event record, then re-run it
//!   from the boot cache and check the replay reproduces the original
//!   `TrialResult` bit-identically (including the step count).
//! * `replay --log FILE` — load a record written by `--out` (or checked
//!   in under `tests/data/`), replay it, and check the outcome class,
//!   injection point and step count all match the file.
//! * `... --bisect` — additionally bisect the trial against its
//!   fault-free reference execution and report the first divergent step.
//!
//! `--out FILE` writes the record's text form (how golden logs are made).
//! `--setup` and `--mech` take the campaign manifests' spellings, e.g.
//! `OneAppVm(UnixBench)`, `Overcommit(8)`, `NiLiHype`, `Rung(Basic)`,
//! `NiLiHype(-pfd_scan)`.
//!
//! Bad input (an unknown or malformed argument, an unreadable or
//! unparsable log) prints the error and exits with status 2; a replay that
//! diverges from its record exits with status 1.

use nlh_campaign::{
    bisect_trials, parse_setup, run_trial_with, BenchKind, BootCache, MechanismSpec, SetupKind,
    TrialConfig, TrialRecord, TrialRunOptions,
};
use nlh_hv::HandlerKind;
use nlh_inject::FaultType;

const USAGE: &str = "usage: replay [--seed S] [--setup X] [--fault F] [--mech M] \
                     [--ops-lo A --ops-hi B] [--steer H] [--steer-depth D] [--log FILE] \
                     [--out FILE] [--bisect]";

#[derive(Debug)]
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

/// Prints `msg` and exits with status 2, the bad-input status.
fn fail(msg: impl std::fmt::Display) -> ! {
    eprintln!("replay: {msg}");
    std::process::exit(2);
}

/// The value after `flag`, read by `parse`; `what` names the expected form.
fn value<T>(
    it: &mut impl Iterator<Item = String>,
    flag: &str,
    parse: impl FnOnce(&str) -> Option<T>,
    what: &str,
) -> Result<T, String> {
    let v = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
    parse(&v).ok_or_else(|| format!("{flag} needs {what}, got {v:?}"))
}

fn parse_args(argv: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        seed: 2018,
        setup: SetupKind::OneAppVm(BenchKind::UnixBench),
        fault: FaultType::Failstop,
        mech: MechanismSpec::nilihype(),
        ops: None,
        steer: None,
        steer_depth: 0,
        log: None,
        out: None,
        bisect: false,
    };
    let (mut ops_lo, mut ops_hi) = (None, None);
    let int = |v: &str| v.parse::<u64>().ok();
    let path = |v: &str| Some(v.to_string());
    let mut it = argv.into_iter();
    while let Some(a) = it.next() {
        let it = &mut it;
        match a.as_str() {
            "--seed" => args.seed = value(it, &a, int, "an integer")?,
            "--setup" => args.setup = value(it, &a, parse_setup, "a setup")?,
            "--fault" => args.fault = value(it, &a, FaultType::from_name, "a fault type")?,
            "--mech" => args.mech = value(it, &a, MechanismSpec::parse, "a mechanism")?,
            "--ops-lo" => ops_lo = Some(value(it, &a, int, "an integer")?),
            "--ops-hi" => ops_hi = Some(value(it, &a, int, "an integer")?),
            "--steer" => args.steer = Some(value(it, &a, HandlerKind::from_name, "a handler")?),
            "--steer-depth" => args.steer_depth = value(it, &a, int, "an integer")?,
            "--log" => args.log = Some(value(it, &a, path, "a path")?),
            "--out" => args.out = Some(value(it, &a, path, "a path")?),
            "--bisect" => args.bisect = true,
            other => return Err(format!("unknown argument {other}\n{USAGE}")),
        }
    }
    args.ops = match (ops_lo, ops_hi) {
        (Some(lo), Some(hi)) => Some((lo, hi)),
        (None, None) => None,
        _ => return Err("--ops-lo and --ops-hi go together".into()),
    };
    Ok(args)
}

/// Reads and parses a record written by `--out`.
fn load_record(path: &str) -> Result<TrialRecord, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    TrialRecord::from_text(&text).map_err(|e| format!("cannot parse {path}: {e}"))
}

fn main() {
    let args = parse_args(std::env::args().skip(1)).unwrap_or_else(|e| fail(e));
    let cache = BootCache::new();

    // Obtain the record: from a log file, or by running the trial fresh.
    let record = match &args.log {
        Some(path) => load_record(path).unwrap_or_else(|e| fail(e)),
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
        std::fs::write(path, record.to_text())
            .unwrap_or_else(|e| fail(format!("cannot write {path}: {e}")));
        println!("record written to {path}");
    }

    // Replay from the boot cache and hold the record to its own claims.
    let named = &record.mechanism;
    let mech = MechanismSpec::parse(named)
        .unwrap_or_else(|| fail(format!("record names unknown mechanism {named}")))
        .build();
    let result = record.replay(mech.as_ref(), &cache).unwrap_or_else(|e| {
        eprintln!("REPLAY DIVERGED: {e}");
        std::process::exit(1);
    });
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

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(cmdline: &str) -> Result<Args, String> {
        parse_args(cmdline.split_whitespace().map(String::from))
    }

    #[test]
    fn parses_manifest_spellings() {
        let args = parse(
            "--seed 7 --setup Overcommit(8) --mech NiLiHype(-nonidem_mitigation) \
                          --ops-lo 1 --ops-hi 9",
        )
        .unwrap();
        assert_eq!(args.seed, 7);
        assert_eq!(args.setup, SetupKind::Overcommit(8));
        assert_eq!(args.mech.name(), "NiLiHype(-nonidem_mitigation)");
        assert_eq!(args.ops, Some((1, 9)));
    }

    #[test]
    fn rejects_bad_arguments_with_an_error() {
        for (cmdline, needle) in [
            ("--wat", "unknown argument --wat"),
            ("--mech Microreset", "--mech needs a mechanism"),
            ("--mech NiLiHype()", "--mech needs a mechanism"),
            ("--setup FourAppVm", "--setup needs a setup"),
            ("--fault Meteor", "--fault needs a fault type"),
            ("--steer Nowhere", "--steer needs a handler"),
            ("--seed x", "--seed needs an integer"),
            ("--steer-depth -1", "--steer-depth needs an integer"),
            ("--ops-lo 1.5", "--ops-lo needs an integer"),
            ("--ops-lo 1", "go together"),
            ("--seed", "--seed needs a value"),
            ("--log", "--log needs a value"),
        ] {
            let err = parse(cmdline).unwrap_err();
            assert!(err.contains(needle), "{cmdline}: {err}");
        }
    }

    #[test]
    fn rejects_unreadable_or_unparsable_logs() {
        let err = load_record("no/such/file.log").unwrap_err();
        assert!(err.starts_with("cannot read"), "{err}");
        let err = load_record(concat!(env!("CARGO_MANIFEST_DIR"), "/Cargo.toml")).unwrap_err();
        assert!(err.starts_with("cannot parse"), "{err}");
        let golden = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../campaign/tests/data/golden_residual_trial.log"
        );
        assert!(load_record(golden).is_ok());
    }
}
