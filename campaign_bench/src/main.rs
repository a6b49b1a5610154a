//! `campaign_bench`: campaign throughput end to end, or a traced per-layer
//! trial profile. See `README.md` beside this package.
//!
//! ```text
//! campaign_bench [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]
//!                [--scale F] [--spans FILE]
//! ```
//!
//! Without `--workload`, every workload runs in turn, each in a fresh
//! child process. The last line of a workload's output is its JSON result.

use std::process::{Command, ExitCode};

use campaign_bench::workload::{Workload, WORKLOADS};
use campaign_bench::{run, Options};

/// Time budget when `--seconds` is not given (the value BENCHMARK.json
/// sets as `run_seconds`).
const DEFAULT_SECONDS: f64 = 30.0;

const USAGE: &str = "usage: campaign_bench [--workload NAME] [--seed N] [--seconds S] \
                     [--trace 0|1] [--scale F] [--spans FILE]";

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    scale: f64,
    spans: Option<String>,
    /// The arguments to pass on to one child per workload.
    forwarded: Vec<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 0,
        seconds: DEFAULT_SECONDS,
        trace: false,
        scale: 1.0,
        spans: None,
        forwarded: Vec::new(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("invalid {flag} {value:?}");
        match flag.as_str() {
            "--workload" => {
                args.workload = Some(Workload::by_name(&value).ok_or_else(|| {
                    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
                    format!("unknown workload {value:?}; one of {names:?}")
                })?);
                continue;
            }
            // Any 64-bit integer; a negative one selects the corpus of its
            // two's-complement bits.
            "--seed" => {
                args.seed = value
                    .parse::<u64>()
                    .or_else(|_| value.parse::<i64>().map(|s| s as u64))
                    .map_err(|_| bad())?
            }
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| bad())?;
                if !(args.seconds >= 0.0 && args.seconds <= 3600.0) {
                    return Err(bad());
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--scale" => {
                args.scale = value.parse().map_err(|_| bad())?;
                if !(args.scale > 0.0 && args.scale <= 100.0) {
                    return Err(bad());
                }
            }
            "--spans" => {
                args.spans = Some(value);
                continue;
            }
            _ => return Err(format!("unknown option {flag}\n{USAGE}")),
        }
        args.forwarded.extend([flag, value]);
    }
    if args.spans.is_some() && (args.workload.is_none() || !args.trace) {
        return Err("--spans needs --workload and --trace 1".into());
    }
    Ok(args)
}

/// Runs every workload in a child process of its own, one at a time.
fn run_all(args: &Args) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let mut all_ok = true;
    for w in WORKLOADS {
        let status = Command::new(&exe)
            .args(["--workload", w.name])
            .args(&args.forwarded)
            .status()
            .map_err(|e| format!("cannot start the {} run: {e}", w.name))?;
        all_ok &= status.success();
    }
    Ok(all_ok)
}

fn run_one(args: &Args, workload: Workload) -> Result<bool, String> {
    let report = run(&Options {
        workload,
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        scale: args.scale,
    })?;
    for note in &report.notes {
        println!("# {note}");
    }
    for m in &report.metrics {
        println!("{:<28} {:>14.6} {}", m.name, m.value, m.unit);
    }
    println!(
        "{:<28} {:>14} / {} failed",
        "trials_attempted", report.attempted, report.failed
    );
    if let (Some(path), Some(trace)) = (&args.spans, &report.trace) {
        let write = || -> std::io::Result<()> {
            let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
            trace.write_jsonl(&mut out)?;
            std::io::Write::flush(&mut out)
        };
        write().map_err(|e| format!("cannot write {path}: {e}"))?;
    }
    println!("{}", report.result_line());
    Ok(report.correct)
}

fn main() -> ExitCode {
    let outcome = parse_args().and_then(|args| match args.workload {
        Some(w) => run_one(&args, w),
        None => run_all(&args),
    });
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("campaign_bench: {e}");
            ExitCode::from(2)
        }
    }
}
