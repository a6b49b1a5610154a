//! The repository benchmark: fault-injection campaign suites run through
//! the resident [`CampaignEngine`], the path users run, with an optional
//! traced re-run that splits every trial's host time by layer.
//!
//! One [`run`] measures one workload:
//!
//! 1. **Set-up.** A fresh engine builds every boot template the workload
//!    needs, [`SETUP_REPS`] times; the median is `setup_s`. The last
//!    engine is kept, so the timed phase starts with a warm cache.
//! 2. **Rounds.** Each round runs the workload's suite once through
//!    `CampaignEngine::run_suite` on the engine's own workers, a closed
//!    loop: each worker takes the next trial when its last one finishes.
//!    Round `r` offsets every job seed by `r`, so rounds run different
//!    trials. Rounds repeat while the next one is expected to end within
//!    the time budget; `trials_per_s` is all rounds' trials over their
//!    summed wall time.
//! 3. **Checks.** Every cell must run all its trials with an aggregate
//!    that agrees with its per-trial results, and round 0 at seed 0 must
//!    reproduce the workload's golden outcome digest.
//! 4. **Trace** (optional). After each round, the same trials run again
//!    one at a time under [`trace::Trace`]; every traced outcome must equal
//!    the engine's, and the per-layer metrics come from these spans.

pub mod compare;
pub mod json;
pub mod stats;
pub mod trace;
pub mod workload;

use std::time::{Duration, Instant};

use nlh_campaign::{
    CampaignEngine, CampaignSnapshot, CampaignSpec, CellOutput, JobOutcome, SetupKind, SuiteSpec,
    TelemetrySink,
};
use nlh_hv::MachineConfig;

use trace::{name, Trace, TracedCell};
use workload::Workload;

/// Template set-ups per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 7;

/// What to run.
#[derive(Debug, Clone)]
pub struct Options {
    /// The workload.
    pub workload: Workload,
    /// Offsets every job seed (see [`Workload::suite`]).
    pub seed: u64,
    /// Time budget for the rounds. At least one round always runs.
    pub seconds: f64,
    /// Re-run each round traced and report per-layer metrics instead of
    /// end-to-end ones.
    pub trace: bool,
    /// Multiplies every cell's trial count (1.0 is the workload as
    /// written; goldens apply only there).
    pub scale: f64,
}

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Value as measured.
    pub value: f64,
}

/// The outcome of one [`run`].
#[derive(Debug)]
pub struct Report {
    /// No trial failed a check.
    pub correct: bool,
    /// Trials run through the engine in the timed rounds.
    pub attempted: u64,
    /// Trials that failed a check.
    pub failed: u64,
    /// End-to-end metrics, or per-layer metrics for a traced run.
    pub metrics: Vec<Metric>,
    /// Human-readable detail: rounds, digests, check failures, and figures
    /// that exist only for some workloads.
    pub notes: Vec<String>,
    /// The spans of a traced run.
    pub trace: Option<Trace>,
}

impl Report {
    /// The one-line JSON result: `correct`, `attempted`, `failed` and
    /// `metrics` (each metric as `{"value": .., "unit": ..}`).
    pub fn result_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_number(m.value),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".into()
    }
}

/// Collects each cell's wall time from the engine's final snapshot.
#[derive(Default)]
struct WallSink(Vec<(String, f64)>);

impl TelemetrySink for WallSink {
    fn snapshot(&mut self, snap: &CampaignSnapshot) {
        if snap.done {
            self.0.push((snap.job.clone(), snap.wall_secs));
        }
    }
}

impl WallSink {
    fn wall(&self, job: &str) -> f64 {
        self.0
            .iter()
            .find(|(j, _)| j == job)
            .map_or(0.0, |(_, w)| *w)
    }
}

/// Busy and wall seconds of a round's cells, by the engine's own
/// accounting: a sharded cell is busy for its workers' summed checkout and
/// trial-body time; a sampled cell runs on one thread, busy for its wall.
#[derive(Debug, Default, Clone, Copy)]
struct Busy {
    busy: f64,
    wall: f64,
}

fn busy(outcomes: &[JobOutcome], sink: &WallSink) -> Busy {
    let mut b = Busy::default();
    for o in outcomes {
        let wall = sink.wall(&o.name);
        b.wall += wall;
        b.busy += match &o.cell.output {
            CellOutput::Sharded(r) => {
                (r.telemetry.setup_nanos + r.telemetry.run_nanos) as f64 / 1e9
            }
            CellOutput::Sampled(_) => wall,
        };
    }
    b
}

/// Builds every template `setups` need on a fresh engine, timing the whole
/// set-up and each template build.
fn set_up(setups: &[SetupKind]) -> (CampaignEngine, Duration, Vec<Duration>) {
    let start = Instant::now();
    let engine = CampaignEngine::new();
    let mut builds = Vec::new();
    for &setup in setups {
        let t = Instant::now();
        engine.cache().checkout(&MachineConfig::small(), setup, 0);
        builds.push(t.elapsed());
    }
    (engine, start.elapsed(), builds)
}

/// Peak resident set of this process (`VmHWM`), in MB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read the process status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in the process status".into())
}

fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

/// Runs one workload as `opts` says.
///
/// # Errors
///
/// A workload whose manifest is invalid, a seed out of range, or an
/// unreadable process status.
pub fn run(opts: &Options) -> Result<Report, String> {
    let w = opts.workload;
    let first = w.suite(opts.seed, 0, opts.scale)?;
    let mut setups: Vec<SetupKind> = Vec::new();
    for job in &first.jobs {
        if !setups.contains(&job.spec.setup) {
            setups.push(job.spec.setup);
        }
    }

    let mut setup_s = Vec::new();
    let mut build_ms = Vec::new();
    let mut engine = None;
    for _ in 0..SETUP_REPS {
        let (e, total, builds) = set_up(&setups);
        setup_s.push(total.as_secs_f64());
        build_ms.extend(builds.iter().map(|d| d.as_secs_f64() * 1e3));
        engine = Some(e);
    }
    let engine = engine.expect("SETUP_REPS > 0");
    let template_builds = engine.cache().counters().misses;

    let nproc = std::thread::available_parallelism().map_or(4, |n| n.get());
    let mut notes = Vec::new();
    let mut rates = Vec::new();
    let mut timed_s = 0.0;
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut golden_ok = true;
    let mut round_busy = Busy::default();
    let mut trace = opts.trace.then(Trace::default);

    let budget = Duration::from_secs_f64(opts.seconds.max(0.0));
    let started = Instant::now();
    let mut round = 0u64;
    loop {
        let suite = if round == 0 {
            first.clone()
        } else {
            w.suite(opts.seed, round, opts.scale)?
        };
        let round_start = Instant::now();
        let mut sink = WallSink::default();
        let t = Instant::now();
        let outcomes = engine
            .run_suite(&suite, &mut sink)
            .map_err(|e| e.to_string())?;
        let wall = t.elapsed().as_secs_f64();
        let trials: u64 = outcomes.iter().map(|o| o.cell.executed).sum();
        rates.push(trials as f64 / wall);
        timed_s += wall;
        attempted += trials;
        let b = busy(&outcomes, &sink);
        round_busy.busy += b.busy;
        round_busy.wall += b.wall;

        for o in &outcomes {
            let spec = spec_named(&suite, &o.name);
            if let Some(problem) = workload::check_cell(spec, o) {
                failed += o.cell.executed;
                notes.push(format!("check failed: {problem}"));
            }
        }
        if round == 0 {
            let d = workload::digest(&outcomes);
            if opts.seed == 0 && opts.scale == 1.0 {
                golden_ok = d == w.golden;
                notes.push(format!(
                    "outcome digest {d:#018x}, golden {:#018x}: {}",
                    w.golden,
                    if golden_ok { "match" } else { "MISMATCH" }
                ));
            } else {
                notes.push(format!(
                    "outcome digest {d:#018x} (goldens apply at seed 0, scale 1)"
                ));
            }
        }
        if let Some(trace) = trace.as_mut() {
            failed += trace_round(trace, &engine, &suite, &outcomes, &mut notes);
        }

        round += 1;
        // Stop when another round of the same length would overrun.
        if started.elapsed() + round_start.elapsed() > budget {
            break;
        }
    }
    if !golden_ok {
        failed = attempted;
    }
    notes.insert(
        0,
        format!(
            "workload {} seed {} scale {}: {round} rounds in {:.2} s on {nproc} workers, \
             trials/s per round {:?}",
            w.name,
            opts.seed,
            opts.scale,
            started.elapsed().as_secs_f64(),
            rates
                .iter()
                .map(|r| (r * 10.0).round() / 10.0)
                .collect::<Vec<_>>()
        ),
    );

    let metrics = match &trace {
        None => vec![
            Metric {
                name: "trials_per_s",
                unit: "1/s",
                value: attempted as f64 / timed_s,
            },
            Metric {
                name: "setup_s",
                unit: "s",
                value: stats::median(&setup_s).expect("SETUP_REPS > 0"),
            },
            Metric {
                name: "peak_rss_mb",
                unit: "MB",
                value: peak_rss_mb()?,
            },
        ],
        Some(t) => {
            let mut m = vec![
                Metric {
                    name: "engine.busy_share",
                    unit: "ratio",
                    value: ratio(round_busy.busy, nproc as f64 * round_busy.wall),
                },
                Metric {
                    name: "boot_cache.template_builds",
                    unit: "count",
                    value: template_builds as f64,
                },
                Metric {
                    name: "boot_cache.build_ms",
                    unit: "ms",
                    value: stats::median(&build_ms).unwrap_or(0.0),
                },
            ];
            m.extend(layer_metrics(t, round_busy.busy, &mut notes));
            m
        }
    };

    Ok(Report {
        correct: failed == 0,
        attempted,
        failed,
        metrics,
        notes,
        trace,
    })
}

/// The spec of the job `name` in `suite` (the engine reports each outcome
/// under its job's name, in dependency order).
fn spec_named<'a>(suite: &'a SuiteSpec, name: &str) -> &'a CampaignSpec {
    &suite
        .jobs
        .iter()
        .find(|j| j.spec.name == name)
        .expect("the engine only runs the suite's jobs")
        .spec
}

/// Re-runs one round's suite traced and compares every outcome with the
/// engine's. Returns the number of trials whose outcome differs.
fn trace_round(
    trace: &mut Trace,
    engine: &CampaignEngine,
    suite: &SuiteSpec,
    outcomes: &[JobOutcome],
    notes: &mut Vec<String>,
) -> u64 {
    let mut mismatched = 0;
    for o in outcomes {
        let spec = spec_named(suite, &o.name);
        let bad = match (trace.run_cell(engine.cache(), spec), &o.cell.output) {
            (TracedCell::Sharded(traced), CellOutput::Sharded(_)) => {
                let differing = traced
                    .iter()
                    .zip(&o.cell.per_trial)
                    .filter(|(a, b)| a != b)
                    .count();
                (differing + traced.len().abs_diff(o.cell.per_trial.len())) as u64
            }
            (TracedCell::Sampled(traced), CellOutput::Sampled(s)) => {
                if workload::same_sampled(&traced, s) {
                    0
                } else {
                    o.cell.executed
                }
            }
            _ => o.cell.executed,
        };
        if bad > 0 {
            notes.push(format!("traced outcome differs: {} ({bad} trials)", o.name));
        }
        mismatched += bad;
    }
    mismatched
}

/// The per-layer metrics of a traced run. `e2e_busy` is the engine's busy
/// seconds for the same trials.
fn layer_metrics(t: &Trace, e2e_busy: f64, notes: &mut Vec<String>) -> Vec<Metric> {
    let total = t.total_ns(name::TRIAL);
    let trial_ms: Vec<f64> = t.durations(name::TRIAL).iter().map(|n| n / 1e6).collect();
    let checkout_us: Vec<f64> = t
        .durations(name::CHECKOUT)
        .iter()
        .map(|n| n / 1e3)
        .collect();
    let recover_us: Vec<f64> = t.durations(name::RECOVER).iter().map(|n| n / 1e3).collect();
    let pre_ns = t.total_ns(name::PRE_DETECT);
    let post_ns = t.total_ns(name::POST_RECOVER);
    let n = t.trials.len();
    let detected = t.trials.iter().filter(|f| f.detected).count();
    let pre_steps: u64 = t.trials.iter().filter_map(|f| f.pre_detect_steps).sum();
    let sim_ms: Vec<f64> = t
        .trials
        .iter()
        .filter_map(|f| f.sim_recovery)
        .map(|d| d.as_millis_f64())
        .collect();

    let (tail_p, tail_ms) = stats::tail(&trial_ms)
        .unwrap_or((100.0, stats::percentile(&trial_ms, 100.0).unwrap_or(0.0)));
    notes.push(format!(
        "trial.ms_tail is p{tail_p} of {} traced trials",
        trial_ms.len()
    ));
    // An exact model output, the same on every run of a workload: a note,
    // not a measured metric.
    notes.push(format!(
        "recover.sim_ms_p50 = {:.6} ms simulated",
        stats::median(&sim_ms).unwrap_or(0.0)
    ));
    // Whole-trial step counts exist only for sharded cells, whose per-trial
    // results the bench sees.
    if t.trials.iter().all(|f| f.steps.is_some()) && n > 0 {
        let steps: u64 = t.trials.iter().filter_map(|f| f.steps).sum();
        let post_steps: u64 = t
            .trials
            .iter()
            .filter(|f| f.detected)
            .filter_map(|f| Some(f.steps? - f.pre_detect_steps?))
            .sum();
        notes.push(format!(
            "trial.steps_mean = {:.1} steps; hv.post_recover.steps_per_s = {:.0} steps/s",
            steps as f64 / n as f64,
            ratio(post_steps as f64, post_ns / 1e9)
        ));
    }

    let m = |name, unit, value| Metric { name, unit, value };
    vec![
        m(
            "boot_cache.checkout_us_p50",
            "us",
            stats::median(&checkout_us).unwrap_or(0.0),
        ),
        m(
            "boot_cache.share",
            "ratio",
            ratio(t.total_ns(name::CHECKOUT), total),
        ),
        m(
            "trial.ms_p50",
            "ms",
            stats::median(&trial_ms).unwrap_or(0.0),
        ),
        m("trial.ms_tail", "ms", tail_ms),
        m(
            "trial.detected_share",
            "ratio",
            ratio(detected as f64, n as f64),
        ),
        m(
            "hv.pre_detect.steps_per_s",
            "steps/s",
            ratio(pre_steps as f64, pre_ns / 1e9),
        ),
        m("hv.pre_detect.share", "ratio", ratio(pre_ns, total)),
        m("hv.post_recover.share", "ratio", ratio(post_ns, total)),
        m(
            "hv.undetected.share",
            "ratio",
            ratio(t.total_ns(name::UNDETECTED), total),
        ),
        m(
            "recover.us_p50",
            "us",
            stats::median(&recover_us).unwrap_or(0.0),
        ),
        m(
            "recover.share",
            "ratio",
            ratio(t.total_ns(name::RECOVER), total),
        ),
        m(
            "trace.overhead_share",
            "ratio",
            ratio(total / 1e9, e2e_busy) - 1.0,
        ),
    ]
}
