//! A stretch of independent sampled cells on the engine's workers.
//!
//! A sampled cell runs its trials in order: trial `i`'s trigger window
//! comes from the coverage map of the trials before it. Its run up to the
//! arming step does not: that part depends only on the setup, the trial
//! seed and the mechanism's `OpSupport`. Cells that share those
//! ([`sampled_key`]) form a *sampled sibling group*.
//!
//! A worker takes the group's next trial `i` whole: it checks one system
//! out, runs it once to the arming step ([`ArmedTrial::run`]), then forks
//! it once per cell ([`ArmedTrial::fork`], [`ArmedTrial::fork_copy`]),
//! each with the window the cell's own coverage map picks. A cell's fork waits until the cell has filed trial
//! `i - 1`, so every cell files its trials in order; the worker forks
//! whichever cell is ready first. Workers holding consecutive trials thus
//! run as a pipeline: while one forks trial `i` for a cell whose trial
//! `i - 1` recovers slowly, the next forks trial `i + 1` for the cells
//! done with `i`. The lowest trial in flight never waits. A worker holds
//! only its own trial's armed state and one running copy, allocated and
//! freed on its own thread. A cell with no sibling runs whole on one
//! worker, as before groups existed.

use std::sync::{Condvar, Mutex, MutexGuard};
use std::time::Instant;

use nlh_core::RecoveryMechanism;

use super::{parallelism, CampaignEngine, CellCache, CellOutput, CellResult, CellTally};
use crate::coverage::{SampledRun, SampledTrial};
use crate::record::TrialRecord;
use crate::spec::{CampaignSpec, ExecMode};
use crate::stream::{CampaignSnapshot, MemorySink, TelemetrySink};
use crate::trial::{ArmedTrial, Sibling, TrialConfig, TrialResult, TrialRunOptions};

/// What sampled cells must share to run as one sampled sibling group:
/// trial `i` of each starts from the same system and seed and runs
/// identically up to its arming step.
fn sampled_key(spec: &CampaignSpec) -> impl PartialEq {
    (spec.setup, spec.seed, spec.mechanism.build().op_support())
}

impl CampaignEngine {
    /// Runs independent sampled cells on up to [`parallelism`] workers;
    /// the calling thread is one of them. Each cell's snapshots are
    /// buffered and reach `sink` together, in `specs` order, once every
    /// earlier cell has finished. Results and snapshots (wall time aside)
    /// equal running the cells one by one.
    pub(super) fn run_sampled_stretch(
        &self,
        specs: &[&CampaignSpec],
        sink: &mut dyn TelemetrySink,
    ) -> Vec<CellResult> {
        // Templates are built here, in suite order, so each cell reports
        // the cache activity the sequential run would.
        let caches: Vec<CellCache> = specs.iter().map(|spec| self.cell_cache(spec)).collect();
        let stretch = Stretch {
            engine: self,
            specs,
            caches: &caches,
            board: Mutex::new(Board::new(specs, &caches)),
            wake: Condvar::new(),
        };
        let trials: u64 = specs.iter().map(|spec| spec.trials).sum();
        let workers = parallelism().min(trials.max(1) as usize);
        let mut cells = Vec::with_capacity(specs.len());
        std::thread::scope(|scope| {
            for _ in 1..workers {
                scope.spawn(|| stretch.work(None));
            }
            stretch.work(Some(&mut |finished| {
                for (cell, snapshots) in finished {
                    for snap in &snapshots {
                        sink.snapshot(snap);
                    }
                    cells.push(cell);
                }
            }));
        });
        cells
    }
}

/// The shared state of a running stretch.
struct Stretch<'a> {
    engine: &'a CampaignEngine,
    specs: &'a [&'a CampaignSpec],
    caches: &'a [CellCache],
    board: Mutex<Board<'a>>,
    /// Signalled whenever a cell files a trial or finishes.
    wake: Condvar,
}

/// What is running and what is left, under the stretch's lock.
struct Board<'a> {
    cells: Vec<Cell<'a>>,
    groups: Vec<Group>,
    /// Cells with no sibling, in suite order, and the next to start.
    solos: Vec<usize>,
    next_solo: usize,
    /// Finished cells not yet handed on, and how many were.
    finished: Vec<Option<Finished>>,
    delivered: usize,
    /// A worker panicked: the others stop.
    aborted: bool,
}

/// A finished cell and its snapshots.
type Finished = (CellResult, Vec<CampaignSnapshot>);

/// A cell's fold while its group runs.
struct Cell<'a> {
    spec: &'a CampaignSpec,
    tally: CellTally<'a>,
    /// `None` for a cell with no sibling (which runs whole elsewhere) and
    /// for a finished one.
    run: Option<SampledRun>,
    stopped_at: Option<u64>,
    snapshots: MemorySink,
    /// Host seconds spent on the cell's trials so far: its snapshots'
    /// `wall_secs`.
    busy_secs: f64,
}

impl Cell<'_> {
    fn needs(&self, trial: u64) -> bool {
        self.run.is_some() && self.stopped_at.is_none() && trial < self.spec.trials
    }
}

struct Group {
    /// Member cells, in suite order; the first one's mechanism runs the
    /// shared part.
    cells: Vec<usize>,
    /// The next trial a worker takes.
    next_trial: u64,
}

enum Task {
    Solo(usize),
    Trial { group: usize, trial: u64 },
}

impl<'a> Board<'a> {
    fn new(specs: &[&'a CampaignSpec], caches: &[CellCache]) -> Self {
        let keys: Vec<_> = specs.iter().map(|spec| sampled_key(spec)).collect();
        let mut keyed: Vec<Vec<usize>> = Vec::new();
        for c in 0..specs.len() {
            match keyed.iter_mut().find(|cells| keys[cells[0]] == keys[c]) {
                Some(cells) => cells.push(c),
                None => keyed.push(vec![c]),
            }
        }
        let mut board = Board {
            cells: Vec::with_capacity(specs.len()),
            groups: Vec::new(),
            solos: Vec::new(),
            next_solo: 0,
            finished: specs.iter().map(|_| None).collect(),
            delivered: 0,
            aborted: false,
        };
        for (c, spec) in specs.iter().enumerate() {
            let ExecMode::Sampled {
                windows,
                sampling,
                steer_handler,
                depth_cycle,
            } = spec.mode
            else {
                unreachable!("a stretch holds sampled cells");
            };
            let grouped = keyed
                .iter()
                .any(|cells| cells.len() > 1 && cells.contains(&c));
            board.cells.push(Cell {
                spec,
                tally: CellTally::new(spec, caches[c]),
                run: grouped.then(|| {
                    SampledRun::new(
                        spec.setup,
                        spec.fault,
                        spec.seed,
                        windows,
                        sampling,
                        steer_handler,
                        depth_cycle,
                    )
                }),
                stopped_at: None,
                snapshots: MemorySink::default(),
                busy_secs: 0.0,
            });
        }
        for cells in keyed {
            if let [solo] = cells[..] {
                board.solos.push(solo);
                continue;
            }
            board.groups.push(Group {
                cells,
                next_trial: 0,
            });
        }
        // A cell with no trials is finished before it starts.
        for c in 0..board.cells.len() {
            board.finish_if_done(c);
        }
        board
    }

    /// The next task: the next trial of a group some cell of which still
    /// needs it, else the next cell with no sibling.
    fn next_task(&mut self) -> Option<Task> {
        for (g, group) in self.groups.iter_mut().enumerate() {
            let trial = group.next_trial;
            if group.cells.iter().any(|&c| self.cells[c].needs(trial)) {
                group.next_trial += 1;
                return Some(Task::Trial { group: g, trial });
            }
        }
        let c = *self.solos.get(self.next_solo)?;
        self.next_solo += 1;
        Some(Task::Solo(c))
    }

    /// Files cell `c`'s next trial, which took `secs` of host time: its
    /// result, stop test and snapshots; finishes the cell if it is done.
    fn file(
        &mut self,
        c: usize,
        trial: &SampledTrial,
        result: &TrialResult,
        record: &TrialRecord,
        secs: f64,
    ) {
        let cell = &mut self.cells[c];
        cell.busy_secs += secs;
        let run = cell.run.as_mut().expect("a running grouped cell");
        let (done, detected, successes) = run.file(trial, result, record);
        let counts = (detected, successes);
        let wall = cell.busy_secs;
        if cell
            .tally
            .after_trial(done, counts, wall, &mut cell.snapshots)
        {
            cell.stopped_at = Some(done);
        }
        self.finish_if_done(c);
    }

    /// Finishes grouped cell `c` once it needs no further trial.
    fn finish_if_done(&mut self, c: usize) {
        let cell = &mut self.cells[c];
        let Some(run) = cell.run.as_ref() else {
            return;
        };
        if cell.needs(run.filed()) {
            return;
        }
        let sampled = cell.run.take().expect("checked above").finish();
        let executed = sampled.trials;
        let result = CellResult {
            output: CellOutput::Sampled(Box::new(sampled)),
            executed,
            stopped_at: cell.stopped_at,
            cache: cell.tally.cache.counters(executed),
            per_trial: Vec::new(),
        };
        cell.tally
            .finish(&result, cell.busy_secs, &mut cell.snapshots);
        let snapshots = std::mem::take(&mut cell.snapshots.snapshots);
        self.finished[c] = Some((result, snapshots));
    }

    /// Takes the finished cells every earlier cell of which has been
    /// handed on.
    fn deliverable(&mut self) -> Vec<Finished> {
        let mut out = Vec::new();
        while let Some(cell) = self.finished.get_mut(self.delivered).and_then(Option::take) {
            out.push(cell);
            self.delivered += 1;
        }
        out
    }

    fn all_finished(&self) -> bool {
        self.finished[self.delivered..].iter().all(Option::is_some)
    }
}

/// Marks the stretch aborted if its worker unwinds, so the other workers
/// stop waiting for trials that will never be filed.
struct AbortOnPanic<'s, 'a>(&'s Stretch<'a>);

impl Drop for AbortOnPanic<'_, '_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.lock().aborted = true;
            self.0.wake.notify_all();
        }
    }
}

impl<'a> Stretch<'a> {
    fn lock(&self) -> MutexGuard<'_, Board<'a>> {
        self.board.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn wait<'g>(&self, board: MutexGuard<'g, Board<'a>>) -> MutexGuard<'g, Board<'a>> {
        self.wake.wait(board).unwrap_or_else(|e| e.into_inner())
    }

    /// One worker: runs tasks until every cell has finished. The worker
    /// with `deliver` hands it each newly deliverable run of finished
    /// cells.
    fn work(&self, mut deliver: Option<&mut dyn FnMut(Vec<Finished>)>) {
        let _abort = AbortOnPanic(self);
        let mut mechanisms: Vec<Option<Box<dyn RecoveryMechanism>>> =
            self.specs.iter().map(|_| None).collect();
        let mut board = self.lock();
        loop {
            if let Some(deliver) = deliver.as_mut() {
                let ready = board.deliverable();
                if !ready.is_empty() {
                    drop(board);
                    deliver(ready);
                    board = self.lock();
                    continue;
                }
            }
            if board.aborted {
                // The panicking worker's payload reaches the caller when
                // the scope joins it.
                return;
            }
            match board.next_task() {
                Some(Task::Solo(c)) => {
                    drop(board);
                    let mut buffer = MemorySink::default();
                    let cell = self
                        .engine
                        .run_sampled(self.specs[c], self.caches[c], &mut buffer);
                    board = self.lock();
                    board.finished[c] = Some((cell, buffer.snapshots));
                    self.wake.notify_all();
                }
                Some(Task::Trial { group, trial }) => {
                    drop(board);
                    self.run_trial(group, trial, &mut mechanisms);
                    board = self.lock();
                }
                None if board.all_finished() => return,
                None => board = self.wait(board),
            }
        }
    }

    /// Runs trial `trial` of group `g`: the shared part once, then one
    /// fork per cell, each as soon as the cell has filed the trial before.
    fn run_trial(
        &self,
        g: usize,
        trial: u64,
        mechanisms: &mut [Option<Box<dyn RecoveryMechanism>>],
    ) {
        let specs = self.specs;
        let started = Instant::now();
        let mut pending = self.lock().groups[g].cells.clone();
        for &c in &pending {
            mechanisms[c].get_or_insert_with(|| specs[c].mechanism.build());
        }
        let mechanism = |c: usize| mechanisms[c].as_deref().expect("built above");
        let spec = specs[pending[0]];
        let config = TrialConfig::new(spec.setup, spec.fault, spec.seed + trial);
        let (hv, layout) = self
            .engine
            .cache
            .checkout(&config.machine, config.setup, config.seed);
        let lead = Sibling {
            config,
            mechanism: mechanism(pending[0]),
            opts: TrialRunOptions::default(),
        };
        let mut armed = Some(ArmedTrial::run(hv, &lead));
        let mut kept = None;
        // The checkout and the shared run are charged to the first cell
        // forked, as in a sharded group; waiting is charged to none.
        let mut shared = started.elapsed();
        while !pending.is_empty() {
            // The first cell left that has filed the trial before (or no
            // longer needs this one).
            let (c, next) = {
                let mut board = self.lock();
                loop {
                    if board.aborted {
                        return;
                    }
                    let ready = pending.iter().position(|&c| {
                        let cell = &board.cells[c];
                        !cell.needs(trial) || cell.run.as_ref().is_some_and(|r| r.filed() == trial)
                    });
                    match ready {
                        Some(k) => {
                            let c = pending.remove(k);
                            let cell = &board.cells[c];
                            let next = cell
                                .needs(trial)
                                .then(|| cell.run.as_ref().expect("a running cell").next_trial());
                            break (c, next);
                        }
                        None => board = self.wait(board),
                    }
                }
            };
            let Some(next) = next else {
                continue;
            };
            let forked = Instant::now();
            let sibling = [Sibling {
                config: next.config.clone(),
                mechanism: mechanism(c),
                opts: next.opts.clone(),
            }];
            let mut finished = None;
            let done = |_, result, record, _| finished = Some((result, record));
            // As in `run_trial_group`: the first cell forks the armed
            // machine itself and the others copies of a clone of it, which
            // holds each vector without the headroom the machine grew (the
            // last cell takes the clone).
            if let Some(armed) = armed.take() {
                kept = (!pending.is_empty()).then(|| armed.clone());
                armed.fork(&layout, &sibling, done);
            } else if pending.is_empty() {
                let kept = kept.take().expect("kept for the later cells");
                kept.fork(&layout, &sibling, done);
            } else {
                let kept = kept.as_ref().expect("kept for the later cells");
                kept.fork_copy(&layout, &sibling, done);
            }
            let (result, record) = finished.expect("the sibling finishes");
            let secs = forked.elapsed() + std::mem::take(&mut shared);
            self.lock()
                .file(c, &next, &result, &record, secs.as_secs_f64());
            self.wake.notify_all();
        }
    }
}
