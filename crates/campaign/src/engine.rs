//! The resident campaign engine: one long-lived service that runs whole
//! experiment suites against a shared boot cache. It is the only campaign
//! executor in the crate.
//!
//! A [`CampaignEngine`] owns a single cache keyed by `(MachineConfig,
//! SetupKind)` for the life of a job: the first campaign to touch a key
//! builds its template, every later campaign warm-starts from it, and
//! per-cell [`CacheCounters`] make the reuse observable (`misses == 0` on
//! the second campaign). Sharing is safe because
//! [`BootCache::checkout`] reseeds every RNG from the trial seed — a
//! template serves any number of campaigns without coupling their trial
//! streams, so a cell's results do not depend on what else the engine ran
//! (pinned by the `engine_equivalence` suite).
//!
//! Cells name their mechanism by [`crate::MechanismSpec`], which spells
//! every configuration, and run through [`CampaignEngine::run_suite`] or,
//! alone, [`CampaignEngine::run_spec`].
//!
//! Every cell runs on one board (`stretch`). [`CampaignEngine::run_suite`]
//! hands it each maximal stretch of consecutive jobs, in suite order, none
//! of which waits (`after`) on another job of the stretch, whatever their
//! kind; `run_spec` is a stretch of one. On the board, any free worker
//! takes a sharded group's next trial whole: one checkout and one
//! [`run_trial_group`](crate::run_trial_group), which forks the trial at
//! its arming step once per injector and at its first detection once per
//! cell, and runs one post-recovery run per recovery plan. A sampled group's trials are run to their arming step once and
//! forked once per cell, each with the window the cell's own coverage map
//! picks. Each cell folds its trials **seed-ordered**, so its snapshots
//! count the same prefixes however the trials interleaved across workers.
//! Either kind of group reports what the sequential run reports:
//! outcomes come back in suite order, the sink gets each cell's snapshots
//! together and in suite order, and each cell's [`CacheCounters`] come
//! from its own checkouts plus the template build it was first to need
//! in suite order, not from whichever cell happened to check out first.

use std::collections::BTreeSet;
use std::time::Instant;

use crate::boot_cache::{BootCache, CacheCounters};
use crate::campaign::CampaignResult;
use crate::coverage::SampledCampaign;
use crate::spec::{CampaignSpec, SuiteSpec};
use crate::stream::{CampaignSnapshot, TelemetrySink};
use crate::trial::{TrialConfig, TrialResult};

mod stretch;

/// The per-mode payload of a finished cell.
#[derive(Debug)]
pub enum CellOutput {
    /// A sharded cell's aggregate.
    Sharded(CampaignResult),
    /// A sampled cell's coverage-map campaign (boxed: its coverage map
    /// and failure record dwarf a sharded aggregate).
    Sampled(Box<SampledCampaign>),
}

impl CellOutput {
    /// The cell's `(detected, successes)`. A sampled cell detects exactly
    /// the trials it either recovered or counted as residual failures.
    pub fn counts(&self) -> (u64, u64) {
        match self {
            CellOutput::Sharded(r) => (r.detected, r.successes),
            CellOutput::Sampled(s) => (s.successes + s.failures, s.successes),
        }
    }
}

/// Everything the engine knows about a finished cell.
#[derive(Debug)]
pub struct CellResult {
    /// The aggregate result.
    pub output: CellOutput,
    /// Trials executed: always the spec's budget. The field stays because
    /// `campaign_bench` hashes it into each workload's outcome digest.
    pub executed: u64,
    /// Boot-cache activity of this cell: its own checkouts, split into
    /// the template build it paid for (as the first cell in suite order to
    /// need the template) and warm hits. The resident gauge counts the
    /// templates resident once the cell's own template was.
    pub cache: CacheCounters,
    /// Seed-ordered per-trial results (sharded cells only; empty for
    /// sampled cells). The equivalence suite compares these one-for-one
    /// against standalone trial runs.
    pub per_trial: Vec<TrialResult>,
}

impl CellResult {
    /// The sharded aggregate, if this was a sharded cell.
    pub fn sharded(&self) -> Option<&CampaignResult> {
        match &self.output {
            CellOutput::Sharded(r) => Some(r),
            CellOutput::Sampled(_) => None,
        }
    }

    /// The sampled campaign, if this was a sampled cell.
    pub fn sampled(&self) -> Option<&SampledCampaign> {
        match &self.output {
            CellOutput::Sampled(s) => Some(s.as_ref()),
            CellOutput::Sharded(_) => None,
        }
    }
}

/// One finished job of a suite run.
#[derive(Debug)]
pub struct JobOutcome {
    /// The job's name ([`CampaignSpec::name`]).
    pub name: String,
    /// The cell's result.
    pub cell: CellResult,
}

/// Why a suite could not run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SuiteError {
    /// Two jobs share a name.
    DuplicateJob(String),
    /// A job's `after` names a job that does not exist.
    UnknownDependency {
        /// The job with the bad edge.
        job: String,
        /// The missing dependency name.
        dep: String,
    },
    /// The `after` edges form a cycle among these jobs.
    Cycle(Vec<String>),
}

impl std::fmt::Display for SuiteError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SuiteError::DuplicateJob(name) => write!(f, "duplicate job name {name:?}"),
            SuiteError::UnknownDependency { job, dep } => {
                write!(f, "job {job:?} depends on unknown job {dep:?}")
            }
            SuiteError::Cycle(jobs) => write!(f, "dependency cycle among jobs {jobs:?}"),
        }
    }
}

impl std::error::Error for SuiteError {}

/// A resident campaign service: submit [`CampaignSpec`]s (or whole
/// [`SuiteSpec`] graphs) and every cell shares one boot cache.
#[derive(Debug)]
pub struct CampaignEngine {
    cache: BootCache,
}

impl Default for CampaignEngine {
    fn default() -> Self {
        CampaignEngine::new()
    }
}

impl CampaignEngine {
    /// An engine with an empty shared boot cache.
    pub fn new() -> Self {
        CampaignEngine {
            cache: BootCache::new(),
        }
    }

    /// The shared boot cache (inspection; trials check out through it).
    pub fn cache(&self) -> &BootCache {
        &self.cache
    }

    /// Runs one cell, streaming snapshots to `sink`: a stretch of one.
    pub fn run_spec(&self, spec: &CampaignSpec, sink: &mut dyn TelemetrySink) -> CellResult {
        self.run_stretch(&[spec], parallelism(), sink)
            .0
            .pop()
            .expect("a stretch of one runs one cell")
    }

    /// Runs a whole suite in a dependency-respecting order (stable: among
    /// ready jobs, submission order wins), sharing the boot cache across
    /// every cell. Validates the graph before running anything. Each
    /// maximal stretch of consecutive jobs that do not wait on one another
    /// runs on the board (see the module docs); outcomes and snapshots
    /// still arrive in that order.
    pub fn run_suite(
        &self,
        suite: &SuiteSpec,
        sink: &mut dyn TelemetrySink,
    ) -> Result<Vec<JobOutcome>, SuiteError> {
        let order = suite_order(suite)?;
        let mut outcomes = Vec::with_capacity(order.len());
        let mut next = 0;
        while next < order.len() {
            let stretch = &order[next..next + ready_run(suite, &order[next..])];
            let specs: Vec<&CampaignSpec> = stretch.iter().map(|&i| &suite.jobs[i].spec).collect();
            let (cells, _) = self.run_stretch(&specs, parallelism(), sink);
            outcomes.extend(stretch.iter().zip(cells).map(|(&i, cell)| JobOutcome {
                name: suite.jobs[i].spec.name.clone(),
                cell,
            }));
            next += stretch.len();
        }
        Ok(outcomes)
    }

    /// Fixes `spec`'s share of the boot cache before it runs: builds its
    /// template if no earlier cell has, then reads the resident gauge.
    fn cell_cache(&self, spec: &CampaignSpec) -> CellCache {
        let machine = TrialConfig::new(spec.setup, spec.fault, spec.seed).machine;
        CellCache {
            built: spec.trials > 0 && self.cache.prepare(&machine, spec.setup),
            resident: self.cache.counters().resident_templates,
        }
    }
}

/// The bookkeeping a running cell of either mode shares: its snapshot
/// cadence and snapshots, applied as trials are folded in seed order.
struct CellTally<'a> {
    spec: &'a CampaignSpec,
    cache: CellCache,
}

impl CellTally<'_> {
    /// Called once the seed-ordered prefix of `done` trials counts
    /// `(detected, successes)`, `wall_secs` into the cell: streams a
    /// snapshot every `snapshot_every` trials before the last.
    fn after_trial(
        &self,
        done: u64,
        counts: (u64, u64),
        wall_secs: f64,
        sink: &mut dyn TelemetrySink,
    ) {
        let cadence = self.spec.snapshot_every;
        if cadence > 0 && done.is_multiple_of(cadence) && done < self.spec.trials {
            let cache = self.cache.counters(done);
            sink.snapshot(&self.snapshot(done, counts, cache, wall_secs));
        }
    }

    /// Streams the finished cell's final snapshot.
    fn finish(&self, cell: &CellResult, wall_secs: f64, sink: &mut dyn TelemetrySink) {
        let counts = cell.output.counts();
        let mut snap = self.snapshot(cell.executed, counts, cell.cache, wall_secs);
        snap.done = true;
        sink.snapshot(&snap);
    }

    /// The cell's snapshot after `done` trials.
    fn snapshot(
        &self,
        done: u64,
        (detected, successes): (u64, u64),
        cache: CacheCounters,
        wall_secs: f64,
    ) -> CampaignSnapshot {
        CampaignSnapshot {
            job: self.spec.name.clone(),
            trials_done: done,
            trials_target: self.spec.trials,
            detected,
            successes,
            done: false,
            cache,
            wall_secs,
        }
    }
}

/// A cell's share of the boot cache, fixed before the cell runs.
#[derive(Debug, Clone, Copy)]
struct CellCache {
    /// The cell is the first, in suite order, to need its template.
    built: bool,
    /// Templates resident once the cell's own template is.
    resident: u64,
}

impl CellCache {
    /// The cell's counters after it checked out `checkouts` systems.
    fn counters(self, checkouts: u64) -> CacheCounters {
        let misses = u64::from(self.built);
        CacheCounters {
            hits: checkouts.saturating_sub(misses),
            misses,
            resident_templates: self.resident,
        }
    }
}

/// Workers per stretch: the host's parallelism.
fn parallelism() -> usize {
    std::thread::available_parallelism().map_or(4, |n| n.get())
}

/// How many jobs at the head of `order` form one stretch: consecutive
/// jobs none of which waits on another of them.
fn ready_run(suite: &SuiteSpec, order: &[usize]) -> usize {
    let mut stretch: Vec<&str> = Vec::new();
    for &i in order {
        let job = &suite.jobs[i];
        if job.after.iter().any(|dep| stretch.contains(&dep.as_str())) {
            break;
        }
        stretch.push(&job.spec.name);
    }
    stretch.len()
}

/// Validates a suite's job graph and returns a deterministic
/// dependency-respecting execution order (indices into `suite.jobs`).
fn suite_order(suite: &SuiteSpec) -> Result<Vec<usize>, SuiteError> {
    let mut names = BTreeSet::new();
    for job in &suite.jobs {
        if !names.insert(job.spec.name.as_str()) {
            return Err(SuiteError::DuplicateJob(job.spec.name.clone()));
        }
    }
    for job in &suite.jobs {
        for dep in &job.after {
            if !names.contains(dep.as_str()) {
                return Err(SuiteError::UnknownDependency {
                    job: job.spec.name.clone(),
                    dep: dep.clone(),
                });
            }
        }
    }
    let mut order = Vec::with_capacity(suite.jobs.len());
    let mut done: BTreeSet<&str> = BTreeSet::new();
    let mut placed = vec![false; suite.jobs.len()];
    while order.len() < suite.jobs.len() {
        let ready = suite.jobs.iter().enumerate().position(|(i, job)| {
            !placed[i] && job.after.iter().all(|dep| done.contains(dep.as_str()))
        });
        match ready {
            Some(i) => {
                placed[i] = true;
                done.insert(suite.jobs[i].spec.name.as_str());
                order.push(i);
            }
            None => {
                let stuck: Vec<String> = suite
                    .jobs
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| !placed[*i])
                    .map(|(_, j)| j.spec.name.clone())
                    .collect();
                return Err(SuiteError::Cycle(stuck));
            }
        }
    }
    Ok(order)
}

fn elapsed_nanos(since: Instant) -> u64 {
    u64::try_from(since.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::setup::{BenchKind, SetupKind};
    use crate::spec::ExecMode;
    use crate::stream::{MemorySink, NullSink};
    use nlh_inject::FaultType;

    fn spec(name: &str, trials: u64) -> CampaignSpec {
        CampaignSpec::new(
            name,
            SetupKind::OneAppVm(BenchKind::UnixBench),
            FaultType::Failstop,
            trials,
        )
    }

    #[test]
    fn suite_order_respects_dependencies_and_submission_order() {
        let mut suite = SuiteSpec::default();
        suite.push_after(spec("c", 1), &["a", "b"]);
        suite.push(spec("a", 1));
        suite.push(spec("b", 1));
        let order = suite_order(&suite).unwrap();
        assert_eq!(order, vec![1, 2, 0], "a then b (submission order), then c");
    }

    #[test]
    fn suite_order_rejects_bad_graphs() {
        let mut dup = SuiteSpec::default();
        dup.push(spec("a", 1));
        dup.push(spec("a", 1));
        assert_eq!(suite_order(&dup), Err(SuiteError::DuplicateJob("a".into())));

        let mut unknown = SuiteSpec::default();
        unknown.push_after(spec("a", 1), &["ghost"]);
        assert!(matches!(
            suite_order(&unknown),
            Err(SuiteError::UnknownDependency { .. })
        ));

        let mut cyc = SuiteSpec::default();
        cyc.push_after(spec("a", 1), &["b"]);
        cyc.push_after(spec("b", 1), &["a"]);
        assert_eq!(
            suite_order(&cyc),
            Err(SuiteError::Cycle(vec!["a".into(), "b".into()]))
        );
    }

    #[test]
    fn engine_runs_a_cell_and_streams_a_final_snapshot() {
        let engine = CampaignEngine::new();
        let mut sink = MemorySink::default();
        let cell = engine.run_spec(&spec("cell", 8), &mut sink);
        assert_eq!(cell.executed, 8);
        let r = cell.sharded().expect("sharded cell");
        assert_eq!(r.trials, 8);
        assert_eq!(cell.per_trial.len(), 8);
        let last = sink.snapshots.last().expect("final snapshot");
        assert!(last.done);
        assert_eq!(last.trials_done, 8);
        assert_eq!(last.detected, r.detected);
        assert_eq!(last.successes, r.successes);
        assert_eq!(cell.cache.misses, 1, "first cell builds the template");
        assert_eq!(cell.cache.hits, 7);
    }

    #[test]
    fn second_cell_reuses_the_shared_template() {
        let engine = CampaignEngine::new();
        let first = engine.run_spec(&spec("first", 4), &mut NullSink);
        let second = engine.run_spec(&spec("second", 4), &mut NullSink);
        assert_eq!(first.cache.misses, 1);
        assert_eq!(second.cache.misses, 0, "template already resident");
        assert_eq!(second.cache.hits, 4);
    }

    /// The two cell shapes whose snapshots the table below pins.
    fn snapshot_cells() -> Vec<CampaignSpec> {
        use crate::coverage::SamplingMode;
        let mut sharded_every = spec("sharded-every", 9);
        sharded_every.fault = FaultType::Code;
        sharded_every.snapshot_every = 4;
        let mut sampled_every = spec("sampled-every", 10);
        sampled_every.fault = FaultType::Code;
        sampled_every.mode = ExecMode::Sampled {
            windows: 4,
            sampling: SamplingMode::CoverageGuided,
            steer_handler: None,
            depth_cycle: 3,
        };
        sampled_every.snapshot_every = 3;
        vec![sharded_every, sampled_every]
    }

    /// Every snapshot each of the two cells streams, wall time aside,
    /// with the cell's executed count and cache counters. A row is
    /// `(trials_done, detected, successes, cache hits)`; the last row is
    /// the final snapshot, which alone carries `done`.
    #[test]
    fn snapshot_cadence_emits_intermediate_snapshots() {
        type Row = (u64, u64, u64, u64);
        let warm = |hits| CacheCounters {
            hits,
            misses: 1,
            resident_templates: 1,
        };
        let expected: [(u64, CacheCounters, &[Row]); 2] = [
            (9, warm(8), &[(4, 3, 2, 3), (8, 5, 3, 7), (9, 6, 4, 8)]),
            (
                10,
                warm(9),
                &[(3, 2, 1, 2), (6, 4, 2, 5), (9, 6, 4, 8), (10, 7, 5, 9)],
            ),
        ];
        for (s, (executed, cache, rows)) in snapshot_cells().iter().zip(expected) {
            let mut sink = MemorySink::default();
            let cell = CampaignEngine::new().run_spec(s, &mut sink);
            assert_eq!((cell.executed, cell.cache), (executed, cache), "{}", s.name);
            let want: Vec<CampaignSnapshot> = rows
                .iter()
                .enumerate()
                .map(|(i, &(done, detected, successes, hits))| CampaignSnapshot {
                    job: s.name.clone(),
                    trials_done: done,
                    trials_target: s.trials,
                    detected,
                    successes,
                    done: i + 1 == rows.len(),
                    cache: CacheCounters { hits, ..cache },
                    wall_secs: 0.0,
                })
                .collect();
            let got: Vec<CampaignSnapshot> = sink
                .snapshots
                .iter()
                .map(|snap| CampaignSnapshot {
                    wall_secs: 0.0,
                    ..snap.clone()
                })
                .collect();
            assert_eq!(got, want, "{}", s.name);
        }
    }
}
