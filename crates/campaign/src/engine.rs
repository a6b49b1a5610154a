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
//! every configuration, and run through [`CampaignEngine::run_spec`]; the
//! engine builds the spec's mechanism once per worker.
//!
//! Execution is batched: workers pull trial indices from an atomic
//! counter and fill each cell's result slot for that index, and each cell
//! folds its batch **seed-ordered** through one [`Shard`]. Seed-order
//! folding is what makes the optional stop-at-confidence policy
//! deterministic: the stop trial is the first `n` at which the
//! seed-ordered prefix's Wilson half-width crosses the threshold,
//! independent of how the batch's trials interleaved across workers, and
//! the aggregated result equals a fixed-trials run of exactly `n` trials.
//!
//! A suite runs consecutive sharded cells that share a [`sibling_key`] as
//! one sibling group on the trial-level worker pool: trial `i` of every
//! such cell runs identically up to the step that arms its injector, so
//! each trial is checked out once and run through [`run_trial_group`],
//! which forks it there once per distinct injector (fault, trigger window,
//! steer) and again at the first detection, once per cell. A lone sharded
//! cell is a group of one. A sampled cell runs its trials in order, so
//! [`CampaignEngine::run_suite`] runs each maximal stretch of consecutive
//! sampled jobs (in suite order) that do not wait on one another
//! together (`stretch`): cells with one setup, seed and `OpSupport` form a
//! sampled sibling group that runs each trial once up to its arming step
//! and forks it once per cell, on whichever worker is free, and a cell
//! with no sibling runs whole on one worker. Either kind of group reports
//! what the sequential run reports: outcomes come back in suite order,
//! the sink gets each cell's snapshots together and in suite order, and
//! each cell's [`CacheCounters`] come from its own checkouts plus the
//! template build it was first to need in suite order, not from whichever
//! cell happened to check out first.

use std::collections::BTreeSet;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

use nlh_core::RecoveryMechanism;

use crate::boot_cache::{BootCache, CacheCounters};
use crate::campaign::{BootMode, CampaignResult, Shard};
use crate::coverage::{run_sampled_campaign_in, SampledCampaign};
use crate::setup::build_system;
use crate::spec::{CampaignSpec, ExecMode, StopPolicy, SuiteSpec};
use crate::stream::{CampaignSnapshot, MemorySink, TelemetrySink};
use crate::trial::{run_trial_group, Sibling, TrialConfig, TrialResult, TrialRunOptions};

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
    /// Trials actually executed (equals the spec's budget unless
    /// stop-at-confidence halted early).
    pub executed: u64,
    /// `Some(n)` if stop-at-confidence halted the cell after exactly `n`
    /// trials.
    pub stopped_at: Option<u64>,
    /// Boot-cache activity of this cell: its own checkouts, split into
    /// the template build it paid for (as the first cell in suite order to
    /// need the template) and warm hits. The resident gauge counts the
    /// templates resident once the cell's own template was. All zero
    /// under cold boot.
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

    /// Runs one cell, streaming snapshots to `sink`. A sharded cell runs
    /// as a sibling group of one.
    pub fn run_spec(&self, spec: &CampaignSpec, sink: &mut dyn TelemetrySink) -> CellResult {
        match spec.mode {
            ExecMode::Sharded => self
                .run_siblings(&[spec], sink)
                .pop()
                .expect("a group of one runs one cell"),
            ExecMode::Sampled { .. } => self.run_sampled(spec, self.cell_cache(spec), sink),
        }
    }

    /// Runs a whole suite in a dependency-respecting order (stable: among
    /// ready jobs, submission order wins), sharing the boot cache across
    /// every cell. Validates the graph before running anything. Sibling
    /// sharded jobs and stretches of independent sampled jobs each run
    /// together (see the module docs); outcomes and snapshots still
    /// arrive in that order.
    pub fn run_suite(
        &self,
        suite: &SuiteSpec,
        sink: &mut dyn TelemetrySink,
    ) -> Result<Vec<JobOutcome>, SuiteError> {
        let order = suite_order(suite)?;
        let mut outcomes = Vec::with_capacity(order.len());
        let mut next = 0;
        while next < order.len() {
            let rest = &order[next..];
            let specs = |n: usize| -> Vec<&CampaignSpec> {
                rest[..n].iter().map(|&i| &suite.jobs[i].spec).collect()
            };
            let head = &suite.jobs[rest[0]].spec;
            let (group, cells) = match sibling_key(head) {
                Some(key) => {
                    let n = ready_run(suite, rest, |s| sibling_key(s).as_ref() == Some(&key));
                    (n, self.run_siblings(&specs(n), sink))
                }
                None => {
                    let n = ready_run(suite, rest, |s| matches!(s.mode, ExecMode::Sampled { .. }));
                    if n > 1 {
                        (n, self.run_sampled_stretch(&specs(n), sink))
                    } else {
                        (1, vec![self.run_spec(head, sink)])
                    }
                }
            };
            outcomes.extend(
                rest[..group]
                    .iter()
                    .zip(cells)
                    .map(|(&i, cell)| JobOutcome {
                        name: suite.jobs[i].spec.name.clone(),
                        cell,
                    }),
            );
            next += group;
        }
        Ok(outcomes)
    }

    /// Fixes `spec`'s share of the boot cache before it runs: builds its
    /// template if no earlier cell has, then reads the resident gauge.
    fn cell_cache(&self, spec: &CampaignSpec) -> CellCache {
        match spec.boot {
            BootMode::Cold => CellCache::default(),
            BootMode::Warm => {
                let machine = TrialConfig::new(spec.setup, spec.fault, spec.seed).machine;
                let built = spec.trials > 0 && self.cache.prepare(&machine, spec.setup);
                CellCache {
                    warm: true,
                    built,
                    resident: self.cache.counters().resident_templates,
                }
            }
        }
    }

    /// Runs a sibling group of sharded cells (jobs with one
    /// [`sibling_key`]) in batches on the trial-level worker pool. Each
    /// trial checks one system out and runs [`run_trial_group`] over the
    /// cells still running, and each cell folds its own results in seed
    /// order. A cell that stops at confidence leaves the group at the next
    /// batch boundary. The first cell's snapshots stream to `sink`; the
    /// others' are buffered and follow it in cell order once the group
    /// finishes.
    ///
    /// Busy time and wall time are split so that each sums to the group's:
    /// a trial's checkout and the run its siblings share are charged to
    /// the first running cell, each sibling's own run after a fork to that
    /// sibling, and each snapshot's `wall_secs` is the group's elapsed time
    /// times the cell's share of the busy time so far.
    fn run_siblings(
        &self,
        specs: &[&CampaignSpec],
        sink: &mut dyn TelemetrySink,
    ) -> Vec<CellResult> {
        let tallies: Vec<CellTally> = specs
            .iter()
            .map(|spec| CellTally::new(spec, self.cell_cache(spec)))
            .collect();
        let started = Instant::now();
        let trials = specs[0].trials;
        let threads = parallelism().min(trials.max(1) as usize);
        let batch = if tallies[0].cadence > 0 {
            tallies[0].cadence
        } else {
            trials.max(1)
        };

        let mut cells: Vec<SiblingCell> = specs
            .iter()
            .map(|spec| SiblingCell {
                shard: Shard::new(spec.mechanism.name()),
                per_trial: Vec::new(),
                stopped_at: None,
                checkouts: 0,
            })
            .collect();
        // The first cell streams to `sink`, so its buffer stays empty.
        let mut buffers: Vec<MemorySink> = specs.iter().map(|_| MemorySink::default()).collect();
        let mut start = 0u64;
        while start < trials {
            let active: Vec<usize> = (0..cells.len())
                .filter(|&j| cells[j].stopped_at.is_none())
                .collect();
            if active.is_empty() {
                break;
            }
            let end = (start + batch).min(trials);
            let active_specs: Vec<&CampaignSpec> = active.iter().map(|&j| specs[j]).collect();
            let parts = self.run_batch(&active_specs, start..end, threads);
            for (&j, part) in active.iter().zip(&parts) {
                cells[j].shard.add_nanos(part.setup_ns, part.run_ns);
                cells[j].checkouts = end;
            }
            let busy: u64 = cells.iter().map(|c| c.shard.busy_nanos()).sum();
            let elapsed = started.elapsed().as_secs_f64();
            for (&j, part) in active.iter().zip(parts) {
                let cell = &mut cells[j];
                let wall = wall_share(elapsed, cell.shard.busy_nanos(), busy, j == 0);
                let out: &mut dyn TelemetrySink = if j == 0 { &mut *sink } else { &mut buffers[j] };
                // Under stop-at-confidence, halt at the exact first crossing
                // trial and drop the rest of its batch.
                for slot in part.results {
                    let r = slot.into_inner().expect("every trial of the batch ran");
                    cell.shard.add(&r);
                    cell.per_trial.push(r);
                    let done = cell.per_trial.len() as u64;
                    if tallies[j].after_trial(done, cell.shard.counts(), wall, out) {
                        cell.stopped_at = Some(done);
                        break;
                    }
                }
            }
            start = end;
        }

        let busy: u64 = cells.iter().map(|c| c.shard.busy_nanos()).sum();
        let elapsed = started.elapsed().as_secs_f64();
        let mut results = Vec::with_capacity(cells.len());
        for (j, (cell, buffer)) in cells.into_iter().zip(buffers).enumerate() {
            for snap in &buffer.snapshots {
                sink.snapshot(snap);
            }
            let wall = wall_share(elapsed, cell.shard.busy_nanos(), busy, j == 0);
            let executed = cell.per_trial.len() as u64;
            let result = CellResult {
                output: CellOutput::Sharded(cell.shard.into_result(specs[j].fault, executed)),
                executed,
                stopped_at: cell.stopped_at,
                // Every trial a batch ran for the cell counts as one of its
                // checkouts, including those past its stop trial.
                cache: tallies[j].cache.counters(cell.checkouts),
                per_trial: cell.per_trial,
            };
            tallies[j].finish(&result, wall, sink);
            results.push(result);
        }
        results
    }

    /// Runs trials `range` of the sibling cells `specs` on `threads`
    /// workers, one checkout and one [`run_trial_group`] per trial, and
    /// returns each cell's results in seed order with its busy time.
    fn run_batch(
        &self,
        specs: &[&CampaignSpec],
        range: Range<u64>,
        threads: usize,
    ) -> Vec<BatchPart> {
        let mut parts: Vec<BatchPart> = specs
            .iter()
            .map(|_| BatchPart {
                results: range.clone().map(|_| OnceLock::new()).collect(),
                setup_ns: 0,
                run_ns: 0,
            })
            .collect();
        let next = AtomicU64::new(range.start);
        let worker = || {
            let built: Vec<Box<dyn RecoveryMechanism>> =
                specs.iter().map(|spec| spec.mechanism.build()).collect();
            let mut nanos = vec![(0u64, 0u64); specs.len()];
            loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= range.end {
                    break;
                }
                let siblings: Vec<Sibling> = specs
                    .iter()
                    .zip(&built)
                    .map(|(spec, mech)| Sibling {
                        config: TrialConfig::new(spec.setup, spec.fault, spec.seed + i),
                        mechanism: mech.as_ref(),
                        opts: TrialRunOptions::default(),
                    })
                    .collect();
                let cfg = &siblings[0].config;
                let t0 = Instant::now();
                let (hv, layout) = match specs[0].boot {
                    BootMode::Warm => self.cache.checkout(&cfg.machine, cfg.setup, cfg.seed),
                    BootMode::Cold => build_system(cfg.machine.clone(), cfg.setup, cfg.seed),
                };
                nanos[0].0 += elapsed_nanos(t0);
                let mut lap = Instant::now();
                run_trial_group(hv, &layout, &siblings, |k, r, record, hv| {
                    drop((record, hv));
                    let slot = &parts[k].results[(i - range.start) as usize];
                    slot.set(r).expect("each trial runs once");
                    nanos[k].1 += elapsed_nanos(lap);
                    lap = Instant::now();
                });
            }
            nanos
        };
        let nanos: Vec<Vec<(u64, u64)>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..threads).map(|_| scope.spawn(worker)).collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("engine worker panicked"))
                .collect()
        });
        for worker in nanos {
            for (part, (setup, run)) in parts.iter_mut().zip(worker) {
                part.setup_ns += setup;
                part.run_ns += run;
            }
        }
        parts
    }

    /// Runs a sampled cell's trials in order on this thread, streaming
    /// snapshots to `sink`.
    fn run_sampled(
        &self,
        spec: &CampaignSpec,
        cache: CellCache,
        sink: &mut dyn TelemetrySink,
    ) -> CellResult {
        let ExecMode::Sampled {
            windows,
            sampling,
            steer_handler,
            depth_cycle,
        } = spec.mode
        else {
            unreachable!("run_sampled runs sampled cells");
        };
        let tally = CellTally::new(spec, cache);
        let started = Instant::now();
        let mech = spec.mechanism.build();
        let mut stopped_at: Option<u64> = None;
        let mut after_trial = |done: u64, detected: u64, successes: u64| {
            let wall = started.elapsed().as_secs_f64();
            let stop = tally.after_trial(done, (detected, successes), wall, sink);
            if stop {
                stopped_at = Some(done);
            }
            stop
        };
        let sampled = run_sampled_campaign_in(
            &self.cache,
            spec.setup,
            spec.fault,
            mech.as_ref(),
            spec.seed,
            spec.trials,
            windows,
            sampling,
            steer_handler,
            depth_cycle,
            &mut after_trial,
        );
        let executed = sampled.trials;
        let cell = CellResult {
            output: CellOutput::Sampled(Box::new(sampled)),
            executed,
            stopped_at,
            cache: tally.cache.counters(executed),
            per_trial: Vec::new(),
        };
        tally.finish(&cell, started.elapsed().as_secs_f64(), sink);
        cell
    }
}

/// A sharded cell's fold while its sibling group runs.
struct SiblingCell {
    shard: Shard,
    per_trial: Vec<TrialResult>,
    /// `Some(n)` once stop-at-confidence halted the cell after `n` trials.
    stopped_at: Option<u64>,
    /// Trials the batches ran for this cell.
    checkouts: u64,
}

/// One cell's share of a batch: a result slot per trial, in seed order,
/// and its busy time.
struct BatchPart {
    results: Vec<OnceLock<TrialResult>>,
    setup_ns: u64,
    run_ns: u64,
}

/// A group member's share of the group's `elapsed` wall seconds: its share
/// of the group's busy time, or all of it for the first cell while nothing
/// has run.
fn wall_share(elapsed: f64, busy: u64, total: u64, first: bool) -> f64 {
    if total == 0 {
        if first {
            elapsed
        } else {
            0.0
        }
    } else {
        elapsed * busy as f64 / total as f64
    }
}

/// The bookkeeping a running cell of either mode shares: its stop test,
/// snapshot cadence and snapshots, applied as trials are folded in seed
/// order.
struct CellTally<'a> {
    spec: &'a CampaignSpec,
    cache: CellCache,
    /// Trials between streamed snapshots (`0` = only the final one). A
    /// sharded cell runs one batch per snapshot.
    cadence: u64,
}

impl<'a> CellTally<'a> {
    fn new(spec: &'a CampaignSpec, cache: CellCache) -> Self {
        let cadence = match spec.stop {
            StopPolicy::AtConfidence { check_every, .. } => check_every.max(1),
            StopPolicy::FixedTrials => spec.snapshot_every,
        };
        CellTally {
            spec,
            cache,
            cadence,
        }
    }

    /// Called once the seed-ordered prefix of `done` trials counts
    /// `(detected, successes)`, `wall_secs` into the cell: returns whether
    /// the stop policy halts the cell here, and otherwise streams a
    /// snapshot on the cadence.
    fn after_trial(
        &self,
        done: u64,
        counts: (u64, u64),
        wall_secs: f64,
        sink: &mut dyn TelemetrySink,
    ) -> bool {
        if self.spec.stop.reached(counts) {
            return true;
        }
        if self.cadence > 0 && done.is_multiple_of(self.cadence) && done < self.spec.trials {
            let cache = self.cache.counters(done);
            sink.snapshot(&self.snapshot(done, counts, cache, None, wall_secs));
        }
        false
    }

    /// Streams the finished cell's final snapshot.
    fn finish(&self, cell: &CellResult, wall_secs: f64, sink: &mut dyn TelemetrySink) {
        let counts = cell.output.counts();
        let mut snap = self.snapshot(
            cell.executed,
            counts,
            cell.cache,
            cell.stopped_at,
            wall_secs,
        );
        snap.done = true;
        sink.snapshot(&snap);
    }

    /// The cell's snapshot after `done` trials.
    fn snapshot(
        &self,
        done: u64,
        (detected, successes): (u64, u64),
        cache: CacheCounters,
        stopped_at: Option<u64>,
        wall_secs: f64,
    ) -> CampaignSnapshot {
        CampaignSnapshot {
            job: self.spec.name.clone(),
            trials_done: done,
            trials_target: self.spec.trials,
            detected,
            successes,
            done: false,
            stopped_at,
            cache,
            wall_secs,
        }
    }
}

/// A cell's share of the boot cache, fixed before the cell runs.
#[derive(Debug, Clone, Copy, Default)]
struct CellCache {
    /// The cell checks systems out of the cache (warm boot).
    warm: bool,
    /// The cell is the first, in suite order, to need its template.
    built: bool,
    /// Templates resident once the cell's own template is.
    resident: u64,
}

impl CellCache {
    /// The cell's counters after it checked out `checkouts` systems.
    fn counters(self, checkouts: u64) -> CacheCounters {
        if !self.warm {
            return CacheCounters::default();
        }
        let misses = u64::from(self.built);
        CacheCounters {
            hits: checkouts.saturating_sub(misses),
            misses,
            resident_templates: self.resident,
        }
    }
}

/// Workers per pool: the host's parallelism.
fn parallelism() -> usize {
    std::thread::available_parallelism().map_or(4, |n| n.get())
}

/// How many jobs at the head of `order` form one group: consecutive jobs
/// that each `join`, none of which waits on another of them.
fn ready_run(suite: &SuiteSpec, order: &[usize], join: impl Fn(&CampaignSpec) -> bool) -> usize {
    let mut group: Vec<&str> = Vec::new();
    for &i in order {
        let job = &suite.jobs[i];
        if !join(&job.spec) || job.after.iter().any(|dep| group.contains(&dep.as_str())) {
            break;
        }
        group.push(&job.spec.name);
    }
    group.len()
}

/// What sharded cells must share to run as one sibling group (`None` for
/// a sampled cell). Trial `i` of every such cell starts from the same
/// system and seed; until its injector arms, the fault plays no part, and
/// until its first detection a mechanism reaches the machine only through
/// its `op_support`. So the cells run every trial identically up to the
/// arming step, and cells with one fault up to the first detection. Equal
/// budgets, stop policies and cadences give them the same batches.
fn sibling_key(spec: &CampaignSpec) -> Option<impl PartialEq> {
    matches!(spec.mode, ExecMode::Sharded).then(|| {
        (
            (spec.setup, spec.seed, spec.trials),
            (spec.boot, spec.stop, spec.snapshot_every),
            spec.mechanism.build().op_support(),
        )
    })
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
        assert_eq!(cell.stopped_at, None);
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

    /// The five cell shapes whose snapshots the table below pins.
    fn snapshot_cells() -> Vec<CampaignSpec> {
        use crate::coverage::SamplingMode;
        let sampled = |name: &str, fault: FaultType, trials: u64| {
            let mut s = spec(name, trials);
            s.fault = fault;
            s.mode = ExecMode::Sampled {
                windows: 4,
                sampling: SamplingMode::CoverageGuided,
                steer_handler: None,
                depth_cycle: 3,
            };
            s
        };
        let mut sharded_every = spec("sharded-every", 9);
        sharded_every.fault = FaultType::Code;
        sharded_every.snapshot_every = 4;
        let mut sharded_stop = spec("sharded-stop", 60);
        sharded_stop.fault = FaultType::Code;
        sharded_stop.stop = StopPolicy::AtConfidence {
            halfwidth: 0.2,
            min_detected: 5,
            check_every: 5,
        };
        let mut sampled_every = sampled("sampled-every", FaultType::Code, 10);
        sampled_every.snapshot_every = 3;
        let mut sampled_stop = sampled("sampled-stop", FaultType::Code, 40);
        sampled_stop.stop = StopPolicy::AtConfidence {
            halfwidth: 0.25,
            min_detected: 4,
            check_every: 3,
        };
        let mut cold = spec("cold", 5);
        cold.boot = BootMode::Cold;
        cold.snapshot_every = 2;
        vec![
            sharded_every,
            sharded_stop,
            sampled_every,
            sampled_stop,
            cold,
        ]
    }

    /// Every snapshot each of the five cells streams, wall time aside,
    /// with the cell's executed count, stop trial and cache counters. A
    /// row is `(trials_done, detected, successes, cache hits)`; the last
    /// row is the final snapshot, which alone carries `done` and the stop.
    #[test]
    fn snapshot_cadence_emits_intermediate_snapshots() {
        type Row = (u64, u64, u64, u64);
        let warm = |hits| CacheCounters {
            hits,
            misses: 1,
            resident_templates: 1,
        };
        let expected: [(u64, Option<u64>, CacheCounters, &[Row]); 5] = [
            (
                9,
                None,
                warm(8),
                &[(4, 3, 2, 3), (8, 5, 3, 7), (9, 6, 4, 8)],
            ),
            (
                28,
                Some(28),
                warm(29),
                &[
                    (5, 3, 2, 4),
                    (10, 7, 5, 9),
                    (15, 10, 8, 14),
                    (20, 11, 8, 19),
                    (25, 13, 10, 24),
                    (28, 16, 12, 29),
                ],
            ),
            (
                10,
                None,
                warm(9),
                &[(3, 2, 1, 2), (6, 4, 2, 5), (9, 6, 4, 8), (10, 7, 5, 9)],
            ),
            (
                14,
                Some(14),
                warm(13),
                &[
                    (3, 2, 1, 2),
                    (6, 4, 2, 5),
                    (9, 6, 4, 8),
                    (12, 8, 6, 11),
                    (14, 9, 7, 13),
                ],
            ),
            (
                5,
                None,
                CacheCounters::default(),
                &[(2, 2, 2, 0), (4, 4, 4, 0), (5, 5, 5, 0)],
            ),
        ];
        for (s, (executed, stopped_at, cache, rows)) in snapshot_cells().iter().zip(expected) {
            let mut sink = MemorySink::default();
            let cell = CampaignEngine::new().run_spec(s, &mut sink);
            assert_eq!(
                (cell.executed, cell.stopped_at, cell.cache),
                (executed, stopped_at, cache),
                "{}",
                s.name
            );
            let want: Vec<CampaignSnapshot> = rows
                .iter()
                .enumerate()
                .map(|(i, &(done, detected, successes, hits))| {
                    let last = i + 1 == rows.len();
                    CampaignSnapshot {
                        job: s.name.clone(),
                        trials_done: done,
                        trials_target: s.trials,
                        detected,
                        successes,
                        done: last,
                        stopped_at: stopped_at.filter(|_| last),
                        cache: CacheCounters { hits, ..cache },
                        wall_secs: 0.0,
                    }
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
