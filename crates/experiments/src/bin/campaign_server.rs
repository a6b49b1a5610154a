//! **Campaign server** — the one-command experiment suite (EXPERIMENTS.md).
//!
//! Runs a whole job graph of campaign cells on one resident
//! [`CampaignEngine`]: every cell shares a single boot cache, so a suite
//! that touches the same `(machine, setup)` key many times (the ladder's
//! eight rungs, Figure 2's six campaigns, ...) pays each template build
//! once. Telemetry streams to stdout while cells run — per-cell recovery
//! rate with its 95% Wilson interval tightening live — and `--json FILE`
//! writes a machine-readable suite summary (the CI artifact).
//!
//! Input is either a manifest file (see `SuiteSpec::parse`; exemplar at
//! `crates/experiments/manifests/ci_suite.manifest`) or a built-in suite:
//!
//! * `--builtin ci` (default) — three cells exercising the job graph, one
//!   per campaign family (sharded fig2 cell, sharded ladder-top cell,
//!   sampled device cell), at the golden-test seeds.
//! * `--builtin suite` — the full quick-scale EXPERIMENTS.md campaign
//!   suite: all eight Table I rungs, all six Figure 2 cells, and the six
//!   device-campaign cells, at the exact golden-test configurations.
//!
//! `--isolated` runs each job on its own fresh engine (a per-job cache, as
//! one process per experiment binary would have) and `--cold-boot` forces
//! every trial to boot from scratch; both exist to measure what the
//! resident engine saves.

use std::fmt::Write as _;
use std::time::Instant;

use nlh_campaign::{
    setup_manifest_name, BootMode, CampaignEngine, CampaignSnapshot, CampaignSpec, CellOutput,
    CellResult, ExecMode, JobOutcome, MechanismSpec, SamplingMode, SetupKind, SuiteSpec,
    TelemetrySink,
};
use nlh_core::LadderRung;
use nlh_experiments::hr;
use nlh_hv::HandlerKind;
use nlh_inject::FaultType;
use nlh_sim::stats::Proportion;

struct Args {
    manifest: Option<String>,
    builtin: String,
    json: Option<String>,
    cold_boot: bool,
    isolated: bool,
    quiet: bool,
    cache_cap: Option<u64>,
}

fn parse_args() -> Args {
    let mut out = Args {
        manifest: None,
        builtin: "ci".into(),
        json: None,
        cold_boot: false,
        isolated: false,
        quiet: false,
        cache_cap: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let mut val = |name: &str| it.next().unwrap_or_else(|| panic!("{name} needs a value"));
        match a.as_str() {
            "--builtin" => out.builtin = val("--builtin"),
            "--json" => out.json = Some(val("--json")),
            "--cold-boot" => out.cold_boot = true,
            "--isolated" => out.isolated = true,
            "--quiet" => out.quiet = true,
            "--cache-cap" => {
                out.cache_cap = Some(
                    val("--cache-cap")
                        .parse()
                        .expect("--cache-cap needs a byte count"),
                )
            }
            "--help" | "-h" => {
                eprintln!(
                    "usage: campaign_server [MANIFEST] [--builtin ci|suite] [--json FILE] \
                     [--cold-boot] [--isolated] [--quiet] [--cache-cap BYTES]"
                );
                std::process::exit(0);
            }
            other if !other.starts_with('-') => out.manifest = Some(other.to_string()),
            other => panic!("unknown option {other}; try --help"),
        }
    }
    out
}

/// The `--builtin ci` suite: one cell per campaign family, with a
/// dependency edge so the job graph is exercised, at golden-test seeds.
fn builtin_ci() -> SuiteSpec {
    let mut suite = SuiteSpec::default();
    let mut fig2 = CampaignSpec::new(
        "fig2-failstop",
        SetupKind::ThreeAppVm,
        FaultType::Failstop,
        30,
    );
    fig2.seed = 77;
    suite.push(fig2);
    let mut ladder = CampaignSpec::new(
        "ladder-top",
        SetupKind::OneAppVm(nlh_campaign::BenchKind::UnixBench),
        FaultType::Failstop,
        40,
    );
    ladder.mechanism = MechanismSpec::Rung(LadderRung::VirtqueueConsistency);
    suite.push(ladder);
    let mut device = CampaignSpec::new(
        "device-failstop",
        SetupKind::TwoAppVmVswitch,
        FaultType::Failstop,
        20,
    );
    device.mechanism = MechanismSpec::Rung(LadderRung::VirtqueueConsistency);
    device.mode = ExecMode::Sampled {
        windows: 8,
        sampling: SamplingMode::CoverageGuided,
        steer_handler: Some(HandlerKind::VirtioMmio),
        depth_cycle: 1,
    };
    suite.push_after(device, &["fig2-failstop"]);
    suite
}

/// The `--builtin suite` graph: the quick-scale EXPERIMENTS.md campaign
/// suite at the exact golden-test configurations (ladder 40×8 @ seed
/// 2018, fig2 30×6 @ seed 77, device 20×6 @ seed 2018).
fn builtin_suite() -> SuiteSpec {
    let mut suite = SuiteSpec::default();
    for rung in LadderRung::ALL {
        let mut spec = CampaignSpec::new(
            format!("ladder-{}", rung.name()),
            SetupKind::OneAppVm(nlh_campaign::BenchKind::UnixBench),
            FaultType::Failstop,
            40,
        );
        spec.mechanism = MechanismSpec::Rung(rung);
        suite.push(spec);
    }
    for mechanism in [MechanismSpec::Nilihype, MechanismSpec::Rehype] {
        for fault in FaultType::ALL {
            let mut spec = CampaignSpec::new(
                format!("fig2-{}-{fault}", mechanism.manifest_name()),
                SetupKind::ThreeAppVm,
                fault,
                30,
            );
            spec.seed = 77;
            spec.mechanism = mechanism;
            suite.push(spec);
        }
    }
    for rung in [
        LadderRung::ReactivateTimerEvents,
        LadderRung::VirtqueueConsistency,
    ] {
        for fault in FaultType::ALL {
            let mut spec = CampaignSpec::new(
                format!("device-{}-{fault}", rung.name()),
                SetupKind::TwoAppVmVswitch,
                fault,
                20,
            );
            spec.mechanism = MechanismSpec::Rung(rung);
            spec.mode = ExecMode::Sampled {
                windows: 8,
                sampling: SamplingMode::CoverageGuided,
                steer_handler: Some(HandlerKind::VirtioMmio),
                depth_cycle: 1,
            };
            suite.push(spec);
        }
    }
    suite
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

/// One row of the JSON summary.
fn json_job(out: &mut String, outcome: &JobOutcome, last: bool) {
    let cell = &outcome.cell;
    let (mode, detected, successes) = match &cell.output {
        CellOutput::Sharded(r) => ("sharded", r.detected, r.successes),
        CellOutput::Sampled(s) => ("sampled", s.successes + s.failures, s.successes),
    };
    let p = Proportion::new(successes, detected);
    let (lo, hi) = p.wilson_95();
    let stopped = cell
        .stopped_at
        .map(|n| n.to_string())
        .unwrap_or_else(|| "null".into());
    let _ = writeln!(out, "    {{");
    let _ = writeln!(out, "      \"name\": \"{}\",", outcome.name);
    let _ = writeln!(out, "      \"mode\": \"{mode}\",");
    let _ = writeln!(out, "      \"executed\": {},", cell.executed);
    let _ = writeln!(out, "      \"stopped_at\": {stopped},");
    let _ = writeln!(out, "      \"detected\": {detected},");
    let _ = writeln!(out, "      \"successes\": {successes},");
    let _ = writeln!(out, "      \"rate\": {:.6},", p.value());
    let _ = writeln!(out, "      \"wilson_lo\": {lo:.6},");
    let _ = writeln!(out, "      \"wilson_hi\": {hi:.6},");
    let _ = writeln!(out, "      \"cache_hits\": {},", cell.cache.hits);
    let _ = writeln!(out, "      \"cache_misses\": {},", cell.cache.misses);
    let _ = writeln!(out, "      \"cache_evictions\": {}", cell.cache.evictions);
    let _ = writeln!(out, "    }}{}", if last { "" } else { "," });
}

fn json_summary(
    label: &str,
    outcomes: &[JobOutcome],
    wall_secs: f64,
    cache: nlh_campaign::CacheCounters,
) -> String {
    let mut out = String::from("{\n");
    let _ = writeln!(out, "  \"suite\": \"{label}\",");
    let _ = writeln!(out, "  \"jobs_run\": {},", outcomes.len());
    let _ = writeln!(out, "  \"wall_secs\": {wall_secs:.3},");
    let _ = writeln!(
        out,
        "  \"cache\": {{\"hits\": {}, \"misses\": {}, \"evictions\": {}, \
         \"resident_templates\": {}, \"resident_bytes\": {}}},",
        cache.hits, cache.misses, cache.evictions, cache.resident_templates, cache.resident_bytes
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
    let (detected, successes) = match &cell.output {
        CellOutput::Sharded(r) => (r.detected, r.successes),
        CellOutput::Sampled(s) => (s.successes + s.failures, s.successes),
    };
    let p = Proportion::new(successes, detected);
    format!(
        "{:<34} {:>5} {:>9} {:>16} {:>6}/{}",
        outcome.name,
        cell.executed,
        format!("{successes}/{detected}"),
        format!("{p}"),
        cell.cache.misses,
        cell.cache.hits,
    )
}

fn main() {
    let args = parse_args();
    let (label, suite) = match (&args.manifest, args.builtin.as_str()) {
        (Some(path), _) => {
            let text = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("read {path}: {e}"));
            let suite = SuiteSpec::parse(&text).unwrap_or_else(|e| panic!("parse {path}: {e}"));
            (path.clone(), suite)
        }
        (None, "ci") => ("ci".to_string(), builtin_ci()),
        (None, "suite") => ("suite".to_string(), builtin_suite()),
        (None, other) => panic!("unknown builtin suite {other:?} (have: ci, suite)"),
    };
    let mut suite = suite;
    if args.cold_boot {
        for job in &mut suite.jobs {
            job.spec.boot = BootMode::Cold;
        }
    }

    println!(
        "campaign server: suite {:?}, {} jobs, {} engine, {} boot",
        label,
        suite.jobs.len(),
        if args.isolated {
            "per-job (isolated)"
        } else {
            "resident (shared cache)"
        },
        if args.cold_boot { "cold" } else { "warm" },
    );
    hr();

    let mut sink = PrintSink { quiet: args.quiet };
    let started = Instant::now();
    let (outcomes, cache) = if args.isolated {
        // Per-job shape: a fresh engine (and cache) per job. Dependency
        // edges carry no data, so submission order is a valid execution
        // order for measurement purposes.
        let mut outcomes = Vec::new();
        let mut cache = nlh_campaign::CacheCounters::default();
        for job in &suite.jobs {
            let engine = CampaignEngine::new();
            let cell: CellResult = engine.run_spec(&job.spec, &mut sink);
            let c = engine.cache().counters();
            cache.hits += c.hits;
            cache.misses += c.misses;
            cache.evictions += c.evictions;
            outcomes.push(JobOutcome {
                name: job.spec.name.clone(),
                cell,
            });
        }
        (outcomes, cache)
    } else {
        let engine = match args.cache_cap {
            Some(cap) => CampaignEngine::with_cache_capacity(cap),
            None => CampaignEngine::new(),
        };
        let outcomes = engine
            .run_suite(&suite, &mut sink)
            .unwrap_or_else(|e| panic!("suite graph error: {e}"));
        (outcomes, engine.cache().counters())
    };
    let wall_secs = started.elapsed().as_secs_f64();

    hr();
    println!(
        "{:<34} {:>5} {:>9} {:>16} {:>8}",
        "job", "run", "succ/det", "rate [95% CI]", "miss/hit"
    );
    hr();
    for outcome in &outcomes {
        println!("{}", cell_line(outcome));
    }
    hr();
    println!(
        "{} jobs in {:.2}s; boot cache: {} builds, {} warm checkouts, {} evictions, \
         {} resident templates (~{} KiB)",
        outcomes.len(),
        wall_secs,
        cache.misses,
        cache.hits,
        cache.evictions,
        cache.resident_templates,
        cache.resident_bytes / 1024,
    );
    if let Some(path) = &args.json {
        std::fs::write(path, json_summary(&label, &outcomes, wall_secs, cache))
            .unwrap_or_else(|e| panic!("write {path}: {e}"));
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
            && s.mechanism == MechanismSpec::Nilihype
            && s.mode == ExecMode::Sharded;
        if !golden_fig2_failstop {
            continue;
        }
        let outcome = outcomes
            .iter()
            .find(|o| o.name == s.name)
            .expect("every job ran");
        if let CellOutput::Sharded(r) = &outcome.cell.output {
            assert_eq!(
                (r.detected, r.successes),
                (30, 30),
                "fig2 failstop golden counts drifted on the engine path"
            );
        }
    }
}
