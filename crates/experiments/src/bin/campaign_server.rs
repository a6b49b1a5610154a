//! **Campaign server** — the one front end for every campaign a manifest
//! can state (EXPERIMENTS.md).
//!
//! Runs a manifest's job graph of campaign cells (see `SuiteSpec::parse`)
//! on one resident [`CampaignEngine`]: every cell shares a single boot
//! cache, so a suite that touches the same `(machine, setup)` key many
//! times (the ladder's eight rungs, Figure 2's six campaigns, ...) pays
//! each template build once. Telemetry streams to stdout while cells run —
//! per-cell recovery rate with its 95% Wilson interval tightening live —
//! then a table with one line per cell, and `--json FILE` writes a
//! machine-readable suite summary (the CI artifact). Sharded cells also
//! report their non-manifested, SDC and noVMF counts in the JSON (Figure
//! 2's noVMF column and the Section VII-A breakdown). Sampled cells also
//! report their first residual failure and coverage; the JSON embeds each
//! one's handler × ops-window coverage map.
//!
//! The checked-in manifests under `crates/experiments/manifests/`:
//!
//! * `table1.manifest` — Table I: the eight enhancement-ladder rungs.
//! * `fig2.manifest` — Figure 2: NiLiHype and ReHype on 3AppVM, one cell
//!   per fault type.
//! * `extensions.manifest` — the Section IX future-work configurations:
//!   shared CPUs and an HVM AppVM, next to their baselines.
//! * `ci_suite.manifest` — three cells, one per campaign family, with a
//!   dependency edge so the job graph is exercised.
//! * `suite.manifest` — the quick-scale campaign suite: all eight Table I
//!   rungs, all six Figure 2 cells and the six device-campaign cells.
//! * `guided.manifest` — uniform vs coverage-guided trigger sampling.
//! * `overcommit.manifest` — recovery rate vs overcommit ratio, with the
//!   scheduler-consistency rung off and on under steered faults.
//! * `ablations.manifest` — the one-knob comparisons: discard policy,
//!   undo logging, the page-frame scan, the ReHype port ladder and the
//!   design space, each configuration named by its mechanism spelling.
//!
//! Every trial warm-starts: it is checked out of the shared cache.
//!
//! Bad input — arguments, an unreadable or malformed manifest, a broken
//! job graph — prints the error and exits with status 2.

use std::fmt::Write as _;
use std::time::Instant;

use nlh_campaign::{
    setup_manifest_name, CacheCounters, CampaignEngine, CampaignSnapshot, CellOutput, ExecMode,
    JobOutcome, MechanismSpec, SuiteSpec, TelemetrySink,
};
use nlh_experiments::hr;
use nlh_hv::HandlerKind;
use nlh_inject::FaultType;
use nlh_sim::stats::Proportion;

const USAGE: &str = "usage: campaign_server MANIFEST [--json FILE] [--quiet]";

struct Args {
    manifest: String,
    json: Option<String>,
    quiet: bool,
}

/// Prints `msg` and exits with status 2, the bad-input status.
fn fail(msg: impl std::fmt::Display) -> ! {
    eprintln!("campaign_server: {msg}");
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut manifest = None;
    let mut out = Args {
        manifest: String::new(),
        json: None,
        quiet: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let mut val = |name: &str| {
            it.next()
                .unwrap_or_else(|| fail(format!("{name} needs a value")))
        };
        match a.as_str() {
            "--json" => out.json = Some(val("--json")),
            "--quiet" => out.quiet = true,
            "--help" | "-h" => {
                eprintln!("{USAGE}");
                std::process::exit(0);
            }
            other if !other.starts_with('-') => manifest = Some(other.to_string()),
            other => fail(format!("unknown option {other}\n{USAGE}")),
        }
    }
    out.manifest = manifest.unwrap_or_else(|| fail(format!("no manifest given\n{USAGE}")));
    out
}

/// Streams snapshot lines to stdout as cells progress.
struct PrintSink {
    quiet: bool,
}

impl TelemetrySink for PrintSink {
    fn snapshot(&mut self, snap: &CampaignSnapshot) {
        if !self.quiet || snap.done {
            println!("  {}", snap.render_line());
        }
    }
}

/// `s` as a JSON string literal. Job names and the suite label come from
/// the manifest and the command line, so anything may be in them.
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' | '\\' => {
                out.push('\\');
                out.push(c);
            }
            c if c.is_control() => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// One row of the JSON summary.
fn json_job(out: &mut String, outcome: &JobOutcome, last: bool) {
    let cell = &outcome.cell;
    let (detected, successes) = cell.output.counts();
    let p = Proportion::new(successes, detected);
    let (lo, hi) = p.wilson_95();
    let opt = |n: Option<u64>| n.map_or_else(|| "null".into(), |n| n.to_string());
    let mode = match cell.output {
        CellOutput::Sharded(_) => "sharded",
        CellOutput::Sampled(_) => "sampled",
    };
    let _ = writeln!(out, "    {{");
    let _ = writeln!(out, "      \"name\": {},", json_str(&outcome.name));
    let _ = writeln!(out, "      \"mode\": \"{mode}\",");
    let _ = writeln!(out, "      \"executed\": {},", cell.executed);
    let _ = writeln!(out, "      \"detected\": {detected},");
    let _ = writeln!(out, "      \"successes\": {successes},");
    let _ = writeln!(out, "      \"rate\": {:.6},", p.value());
    let _ = writeln!(out, "      \"wilson_lo\": {lo:.6},");
    let _ = writeln!(out, "      \"wilson_hi\": {hi:.6},");
    if let Some(r) = cell.sharded() {
        let _ = writeln!(out, "      \"non_manifested\": {},", r.non_manifested);
        let _ = writeln!(out, "      \"sdc\": {},", r.sdc);
        let _ = writeln!(out, "      \"no_vmf\": {},", r.no_vmf);
    }
    if let Some(s) = cell.sampled() {
        let first = s.first_failure_trial.map(|i| i + 1);
        let map = s.coverage.to_json();
        let _ = writeln!(out, "      \"first_failure\": {},", opt(first));
        let _ = writeln!(
            out,
            "      \"covered_cells\": {},",
            s.coverage.covered_cells()
        );
        let _ = writeln!(
            out,
            "      \"coverage\": {},",
            map.trim_end().replace('\n', "\n      ")
        );
    }
    let _ = writeln!(out, "      \"cache_hits\": {},", cell.cache.hits);
    let _ = writeln!(out, "      \"cache_misses\": {}", cell.cache.misses);
    let _ = writeln!(out, "    }}{}", if last { "" } else { "," });
}

fn json_summary(
    label: &str,
    outcomes: &[JobOutcome],
    wall_secs: f64,
    cache: CacheCounters,
) -> String {
    let mut out = String::from("{\n");
    let _ = writeln!(out, "  \"suite\": {},", json_str(label));
    let _ = writeln!(out, "  \"jobs_run\": {},", outcomes.len());
    let _ = writeln!(out, "  \"wall_secs\": {wall_secs:.3},");
    let _ = writeln!(
        out,
        "  \"cache\": {{\"hits\": {}, \"misses\": {}, \"resident_templates\": {}}},",
        cache.hits, cache.misses, cache.resident_templates
    );
    let _ = writeln!(out, "  \"jobs\": [");
    for (i, outcome) in outcomes.iter().enumerate() {
        json_job(&mut out, outcome, i + 1 == outcomes.len());
    }
    let _ = writeln!(out, "  ]");
    out.push_str("}\n");
    out
}

fn cell_line(outcome: &JobOutcome) -> String {
    let cell = &outcome.cell;
    let (detected, successes) = cell.output.counts();
    let p = Proportion::new(successes, detected);
    let mut line = format!(
        "{:<38} {:>5} {:>9} {:>16} {:>8}",
        outcome.name,
        cell.executed,
        format!("{successes}/{detected}"),
        format!("{p}"),
        format!("{}/{}", cell.cache.misses, cell.cache.hits),
    );
    if let Some(s) = cell.sampled() {
        let first = s
            .first_failure_trial
            .map_or_else(|| "-".into(), |i| (i + 1).to_string());
        let total = HandlerKind::ALL.len() * s.coverage.windows();
        let covered = format!("{}/{total}", s.coverage.covered_cells());
        let _ = write!(line, " {first:>10} {covered:>8}");
    }
    line
}

fn main() {
    let args = parse_args();
    let label = &args.manifest;
    let text = std::fs::read_to_string(label)
        .unwrap_or_else(|e| fail(format!("cannot read {label}: {e}")));
    let suite = SuiteSpec::parse(&text).unwrap_or_else(|e| fail(format!("{label}: {e}")));

    println!(
        "campaign server: suite {:?}, {} jobs, resident engine (shared cache)",
        label,
        suite.jobs.len(),
    );
    hr();

    let mut sink = PrintSink { quiet: args.quiet };
    let started = Instant::now();
    let engine = CampaignEngine::new();
    let outcomes = engine
        .run_suite(&suite, &mut sink)
        .unwrap_or_else(|e| fail(format!("{label}: {e}")));
    let cache = engine.cache().counters();
    let wall_secs = started.elapsed().as_secs_f64();

    hr();
    println!(
        "{:<38} {:>5} {:>9} {:>16} {:>8} {:>10} {:>8}",
        "job", "run", "succ/det", "rate [95% CI]", "miss/hit", "first-fail", "covered"
    );
    hr();
    for outcome in &outcomes {
        println!("{}", cell_line(outcome));
    }
    hr();
    println!(
        "{} jobs in {:.2}s; boot cache: {} builds, {} warm checkouts, {} resident templates",
        outcomes.len(),
        wall_secs,
        cache.misses,
        cache.hits,
        cache.resident_templates,
    );
    if let Some(path) = &args.json {
        std::fs::write(path, json_summary(label, &outcomes, wall_secs, cache))
            .unwrap_or_else(|e| fail(format!("cannot write {path}: {e}")));
        println!("suite summary written to {path}");
    }

    // A cell at the exact golden-test configuration must reproduce the
    // golden counts; assert any present so a drifting engine fails loudly
    // here (the CI path), not only in the test suite.
    for job in &suite.jobs {
        let s = &job.spec;
        let golden_fig2_failstop = setup_manifest_name(s.setup) == "ThreeAppVm"
            && s.fault == FaultType::Failstop
            && s.trials == 30
            && s.seed == 77
            && s.mechanism == MechanismSpec::nilihype()
            && s.mode == ExecMode::Sharded;
        if !golden_fig2_failstop {
            continue;
        }
        let outcome = outcomes
            .iter()
            .find(|o| o.name == s.name)
            .expect("every job ran");
        assert_eq!(
            outcome.cell.output.counts(),
            (30, 30),
            "fig2 failstop golden counts drifted on the engine path"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nlh_campaign::{
        CampaignResult, CampaignTelemetry, CellResult, CoverageMap, SampledCampaign, SamplingMode,
    };

    #[test]
    fn json_summary_escapes_names_and_label() {
        let sampled = SampledCampaign {
            mode: SamplingMode::CoverageGuided,
            trials: 2,
            first_failure_trial: Some(0),
            failures: 1,
            successes: 1,
            coverage: CoverageMap::new(8),
            first_failure_record: None,
        };
        let outcome = JobOutcome {
            name: "a\"b\\c\u{1}".into(),
            cell: CellResult {
                output: CellOutput::Sampled(Box::new(sampled)),
                executed: 2,
                cache: CacheCounters::default(),
                per_trial: Vec::new(),
            },
        };
        let json = json_summary(
            "dir\\x\".manifest",
            &[outcome],
            0.5,
            CacheCounters::default(),
        );
        assert!(json.contains(r#""suite": "dir\\x\".manifest","#), "{json}");
        assert!(json.contains(r#""name": "a\"b\\c\u0001","#), "{json}");
        assert!(json.contains("\"first_failure\": 1,"), "{json}");
        assert!(json.contains("\"covered_cells\": 0,"), "{json}");
        assert!(!json.chars().any(|c| c.is_control() && c != '\n'), "{json}");
    }

    #[test]
    fn json_summary_reports_sharded_breakdown() {
        let result = CampaignResult {
            mechanism: "NiLiHype".into(),
            fault: FaultType::Register,
            trials: 10,
            non_manifested: 6,
            sdc: 1,
            detected: 3,
            successes: 2,
            no_vmf: 1,
            failure_reasons: Default::default(),
            telemetry: CampaignTelemetry {
                setup_nanos: 0,
                run_nanos: 0,
                total_steps: 0,
            },
        };
        let outcome = JobOutcome {
            name: "fig2-NiLiHype-Register".into(),
            cell: CellResult {
                output: CellOutput::Sharded(result),
                executed: 10,
                cache: CacheCounters::default(),
                per_trial: Vec::new(),
            },
        };
        let json = json_summary("fig2", &[outcome], 0.5, CacheCounters::default());
        for field in [
            "\"detected\": 3,",
            "\"successes\": 2,",
            "\"non_manifested\": 6,",
            "\"sdc\": 1,",
            "\"no_vmf\": 1,",
        ] {
            assert!(json.contains(field), "{field} in {json}");
        }
        assert!(!json.contains("coverage"), "{json}");
    }
}
