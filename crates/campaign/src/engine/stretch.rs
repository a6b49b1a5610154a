//! The board: a stretch of independent cells on the engine's workers.
//!
//! Every cell runs here. [`CampaignEngine::run_stretch`] takes the cells
//! of one stretch and splits them into groups ([`group_key`]):
//!
//! - a **sharded group** is consecutive sharded cells with one setup,
//!   seed and mechanism `OpSupport`. Its trial `i` needs nothing from
//!   earlier trials, so it is one action that any free worker takes
//!   whole: one checkout and one [`run_trial_group`] over the members
//!   whose budget reaches the trial.
//! - a **sampled group** is the stretch's sampled cells with one setup,
//!   seed and `OpSupport`. A sampled cell runs its trials in order: trial
//!   `i`'s trigger window comes from the coverage map of the trials
//!   before it. Its run up to the arming step does not, so each trial is
//!   checked out and run to its arming step once ([`ArmedTrial::run`]),
//!   then forked once per cell ([`ArmedTrial::fork`]) with the window the
//!   cell's own coverage map picks. A cell forks trial `i` once it has
//!   filed trial `i - 1`. A lone sampled cell is a group of one.
//!
//! Each worker takes the first of these it can ([`Board::next_action`]):
//!
//! 1. **Arm.** While no trial is being armed or waits armed ahead, check
//!    out a sampled group's next trial and run it to its arming step, if
//!    nothing can be forked or the open trial has fewer unforked cells
//!    than twice the workers. The trial opens for forking at once if no
//!    open trial has unforked cells; otherwise it waits armed ahead and
//!    opens when the open one has none.
//! 2. **Fork.** Fork a cell that has filed the trial before out of the
//!    open trial.
//! 3. **Run** a sharded group's next trial whole.
//! 4. **Wait** for a cell to file a trial.
//!
//! Arming ahead while the last cells of a trial are still forked keeps
//! the workers busy; at most one open trial has unforked cells, and one
//! more waits armed ahead. The worker that arms a trial forks the armed
//! machine itself for a cell that is ready then. Only if cells remain
//! unforked after that claim does the trial get a waiting copy: a clone
//! of it, without the headroom the running machine grew, shared through
//! an [`Arc`]. A fork on another worker clones it and drops its reference
//! at once; only the worker that armed it frees it, so drained states
//! stay on the board until that worker drops them. The arming worker
//! forks the waiting copy in place when it takes the last fork with the
//! only reference.
//!
//! A sharded cell buffers the results of the trials it ran and folds
//! their seed-ordered prefix through its [`Shard`].
//!
//! Every cell's snapshots go to its own buffer. The sink gets them in
//! cell order: a cell's buffer as soon as every earlier cell has finished,
//! and the rest of it as it grows until the cell finishes. A snapshot's
//! `wall_secs` is the stretch's elapsed time times the cell's share of
//! the busy time so far. A final snapshot splits what earlier final
//! snapshots left of the elapsed time by the busy time of the cells not
//! yet handed on, so the final wall times sum to at most the stretch's.

use std::collections::BTreeMap;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::Instant;

use nlh_core::RecoveryMechanism;

use super::{elapsed_nanos, CampaignEngine, CellCache, CellOutput, CellResult, CellTally};
use crate::campaign::Shard;
use crate::coverage::{SampledRun, SampledTrial};
use crate::record::TrialRecord;
use crate::setup::SystemLayout;
use crate::spec::{CampaignSpec, ExecMode};
use crate::stream::{CampaignSnapshot, MemorySink, TelemetrySink};
use crate::trial::{
    run_trial_group, ArmedTrial, Sibling, TrialConfig, TrialResult, TrialRunOptions,
};

/// What cells must share to run as one group. Trial `i` of each starts
/// from the same system and seed; until its injector arms, the fault
/// plays no part, and until its first detection a mechanism reaches the
/// machine only through its `op_support`. So the cells run every trial
/// identically up to the arming step, and cells with one injector up to
/// the first detection. Budgets and snapshot cadences may differ: each
/// member takes the trials its budget reaches.
fn group_key(spec: &CampaignSpec) -> impl PartialEq {
    (spec.setup, spec.seed, spec.mechanism.build().op_support())
}

/// `part`'s share of `whole`.
fn share(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64
    }
}

impl CampaignEngine {
    /// Runs a stretch of cells, none of which waits on another, on up to
    /// `workers` workers; the calling thread is one of them. Results and
    /// snapshots (wall time aside) equal running the cells one by one, and
    /// come back in `specs` order. Also returns the most open armed trials
    /// that had unforked cells at once.
    pub(super) fn run_stretch(
        &self,
        specs: &[&CampaignSpec],
        workers: usize,
        sink: &mut dyn TelemetrySink,
    ) -> (Vec<CellResult>, usize) {
        // Templates are built here, in suite order, so each cell reports
        // the cache activity the sequential run would.
        let caches: Vec<CellCache> = specs.iter().map(|spec| self.cell_cache(spec)).collect();
        let trials: u64 = specs.iter().map(|spec| spec.trials).sum();
        let stretch = Stretch {
            engine: self,
            specs,
            workers: workers.min(trials.max(1) as usize),
            board: Mutex::new(Board::new(specs, &caches)),
            wake: Condvar::new(),
        };
        let mut cells = Vec::with_capacity(specs.len());
        std::thread::scope(|scope| {
            let stretch = &stretch;
            for me in 1..stretch.workers {
                scope.spawn(move || stretch.work(me, None));
            }
            stretch.work(
                0,
                Some(&mut |snapshots, finished| {
                    for snap in &snapshots {
                        sink.snapshot(snap);
                    }
                    cells.extend(finished);
                }),
            );
        });
        let peak = stretch.lock().peak_waiting;
        (cells, peak)
    }
}

/// The shared state of a running stretch.
struct Stretch<'a> {
    engine: &'a CampaignEngine,
    specs: &'a [&'a CampaignSpec],
    workers: usize,
    board: Mutex<Board<'a>>,
    /// Signalled whenever a cell files a trial or finishes, and whenever
    /// an armed trial opens or is claimed.
    wake: Condvar,
}

/// What is running and what is left, under the stretch's lock.
struct Board<'a> {
    cells: Vec<Cell<'a>>,
    groups: Vec<Group>,
    /// Armed trials open for forking: at most one with unforked cells,
    /// and drained ones the worker that armed them has not freed yet.
    open: Vec<Armed>,
    /// A trial armed while the open one still had unforked cells; it
    /// opens once that one has none.
    ahead: Option<Armed>,
    /// A worker is running a trial to its arming step.
    arming: bool,
    /// The most open trials with unforked cells at once (host-only).
    peak_waiting: usize,
    /// Finished cells not yet handed on, and how many were.
    finished: Vec<Option<(CellResult, MemorySink)>>,
    delivered: usize,
    /// When the stretch started, the host nanoseconds charged to its
    /// cells, and the wall seconds and busy nanoseconds of the cells
    /// handed on.
    started: Instant,
    busy: u64,
    handed_wall: f64,
    handed_busy: u64,
    /// A worker panicked: the others stop.
    aborted: bool,
}

/// A cell while its group runs.
struct Cell<'a> {
    spec: &'a CampaignSpec,
    tally: CellTally<'a>,
    /// `None` once the cell has finished.
    fold: Option<Fold>,
    /// Trials filed, in trial order.
    filed: u64,
    snapshots: MemorySink,
    /// Host nanoseconds charged to the cell so far.
    busy: u64,
}

/// What a cell folds its filed trials into.
enum Fold {
    Sharded {
        shard: Shard,
        per_trial: Vec<TrialResult>,
        /// Results of trials past the filed prefix.
        waiting: BTreeMap<u64, TrialResult>,
    },
    Sampled(Box<SampledRun>),
}

impl Cell<'_> {
    /// Whether the cell still needs `trial`.
    fn needs(&self, trial: u64) -> bool {
        self.fold.is_some() && trial < self.spec.trials
    }

    /// Whether the cell needs `trial` and has filed every trial before it.
    fn ready_for(&self, trial: u64) -> bool {
        self.needs(trial) && self.filed == trial
    }

    /// The sampled cell's next trial, as its coverage map steers it.
    fn next_trial(&self) -> SampledTrial {
        match &self.fold {
            Some(Fold::Sampled(run)) => run.next_trial(),
            _ => unreachable!("a running sampled cell"),
        }
    }
}

struct Group {
    /// Member cells, in suite order; a sampled group's first one's
    /// mechanism runs the shared part.
    cells: Vec<usize>,
    /// The next trial to arm or run.
    next_trial: u64,
    sharded: bool,
}

/// A trial run to its arming step, and the system layout it was checked
/// out with.
#[derive(Clone)]
struct ArmedState {
    trial: ArmedTrial,
    layout: SystemLayout,
}

/// An armed trial on the board.
struct Armed {
    trial: u64,
    /// The worker that armed it: the only one that frees it.
    owner: usize,
    /// The waiting copy.
    state: Arc<ArmedState>,
    /// Member cells that still need the trial and have not forked it, in
    /// suite order.
    unforked: Vec<usize>,
    /// Nanoseconds of the checkout and the shared run, charged to the
    /// first cell forked.
    shared: u64,
}

/// What a worker does next.
enum Action {
    Arm {
        group: usize,
        trial: u64,
    },
    Fork(Fork),
    /// Run a sharded trial for these member cells.
    Run {
        trial: u64,
        cells: Vec<usize>,
    },
    Wait,
    /// Every cell has finished.
    Done,
}

/// A cell's claim on an armed trial.
struct Fork {
    cell: usize,
    next: SampledTrial,
    source: Source,
    /// Host nanoseconds charged to this fork besides its own run.
    shared: u64,
}

/// The armed state a fork runs on.
enum Source {
    /// The state itself, forked in place.
    Own(Box<ArmedState>),
    /// A waiting copy, cloned and released before the fork runs.
    Shared(Arc<ArmedState>),
}

impl<'a> Board<'a> {
    fn new(specs: &[&'a CampaignSpec], caches: &[CellCache]) -> Self {
        let keys: Vec<_> = specs.iter().map(|spec| group_key(spec)).collect();
        let mut groups: Vec<Group> = Vec::new();
        for (c, spec) in specs.iter().enumerate() {
            let sharded = matches!(spec.mode, ExecMode::Sharded);
            // A sharded cell joins only the group of the cell just before it.
            let joins = |group: &Group| {
                group.sharded == sharded
                    && keys[group.cells[0]] == keys[c]
                    && (!sharded || group.cells.last() == Some(&(c - 1)))
            };
            match groups.iter_mut().find(|group| joins(group)) {
                Some(group) => group.cells.push(c),
                None => groups.push(Group {
                    cells: vec![c],
                    next_trial: 0,
                    sharded,
                }),
            }
        }
        let cells = specs
            .iter()
            .zip(caches)
            .map(|(&spec, &cache)| Cell {
                spec,
                tally: CellTally { spec, cache },
                fold: Some(match spec.mode {
                    ExecMode::Sharded => Fold::Sharded {
                        shard: Shard::new(spec.mechanism.name()),
                        per_trial: Vec::new(),
                        waiting: BTreeMap::new(),
                    },
                    ExecMode::Sampled {
                        windows,
                        sampling,
                        steer_handler,
                        depth_cycle,
                    } => Fold::Sampled(Box::new(SampledRun::new(
                        spec.setup,
                        spec.fault,
                        spec.seed,
                        windows,
                        sampling,
                        steer_handler,
                        depth_cycle,
                    ))),
                }),
                filed: 0,
                snapshots: MemorySink::default(),
                busy: 0,
            })
            .collect();
        let mut board = Board {
            cells,
            groups,
            open: Vec::new(),
            ahead: None,
            arming: false,
            peak_waiting: 0,
            finished: specs.iter().map(|_| None).collect(),
            delivered: 0,
            started: Instant::now(),
            busy: 0,
            handed_wall: 0.0,
            handed_busy: 0,
            aborted: false,
        };
        // A cell with no trials is finished before it starts.
        for c in 0..board.cells.len() {
            board.finish_if_done(c);
        }
        board
    }

    /// The first action in the module docs' list that worker `me` of
    /// `workers` can take, claimed.
    fn next_action(&mut self, me: usize, workers: usize) -> Action {
        let fork = self.open.iter().enumerate().find_map(|(e, armed)| {
            let k = armed
                .unforked
                .iter()
                .position(|&c| self.cells[c].ready_for(armed.trial))?;
            Some((e, k))
        });
        let unforked: usize = self.open.iter().map(|armed| armed.unforked.len()).sum();
        let slot_free = !self.arming && self.ahead.is_none();
        if slot_free && (fork.is_none() || unforked < 2 * workers) {
            if let Some((group, trial)) = self.take_trial(false) {
                self.arming = true;
                return Action::Arm { group, trial };
            }
        }
        if let Some((e, k)) = fork {
            return Action::Fork(self.claim(me, e, k));
        }
        if let Some((g, trial)) = self.take_trial(true) {
            let cells = self.needing(g, trial).collect();
            return Action::Run { trial, cells };
        }
        if self.finished[self.delivered..].iter().all(Option::is_some) {
            Action::Done
        } else {
            Action::Wait
        }
    }

    /// The next trial of the first sharded (or sampled) group some member
    /// of which still needs it, taken. A group is exhausted once no member
    /// needs its next trial.
    fn take_trial(&mut self, sharded: bool) -> Option<(usize, u64)> {
        let cells = &self.cells;
        let (g, group) = self.groups.iter_mut().enumerate().find(|(_, group)| {
            group.sharded == sharded
                && group
                    .cells
                    .iter()
                    .any(|&c| cells[c].needs(group.next_trial))
        })?;
        group.next_trial += 1;
        Some((g, group.next_trial - 1))
    }

    /// The member cells of group `g` that still need `trial`, in suite
    /// order.
    fn needing(&self, g: usize, trial: u64) -> impl Iterator<Item = usize> + '_ {
        self.groups[g]
            .cells
            .iter()
            .copied()
            .filter(move |&c| self.cells[c].needs(trial))
    }

    /// Claims the `k`th unforked cell of open trial `e` for worker `me`.
    fn claim(&mut self, me: usize, e: usize, k: usize) -> Fork {
        let armed = &mut self.open[e];
        let cell = armed.unforked.remove(k);
        let shared = std::mem::take(&mut armed.shared);
        let last = armed.unforked.is_empty();
        let source = if last && armed.owner == me && Arc::strong_count(&armed.state) == 1 {
            let armed = self.open.remove(e);
            Source::Own(Box::new(
                Arc::into_inner(armed.state).expect("the only reference"),
            ))
        } else {
            Source::Shared(Arc::clone(&armed.state))
        };
        self.open_ahead();
        Fork {
            cell,
            next: self.cells[cell].next_trial(),
            source,
            shared,
        }
    }

    /// Claims trial `trial` of group `g` for the worker that armed it if
    /// exactly one cell needs the trial and that cell is ready for it, so
    /// that the trial needs no waiting copy.
    fn claim_whole(&mut self, g: usize, trial: u64) -> Option<(usize, SampledTrial)> {
        let mut needing = self.needing(g, trial);
        let (Some(c), None) = (needing.next(), needing.next()) else {
            return None;
        };
        drop(needing);
        if !self.cells[c].ready_for(trial) {
            return None;
        }
        self.arming = false;
        Some((c, self.cells[c].next_trial()))
    }

    /// Opens the trial armed ahead once no open trial has unforked cells.
    fn open_ahead(&mut self) {
        if self.open.iter().all(|armed| armed.unforked.is_empty()) {
            if let Some(armed) = self.ahead.take() {
                self.open.push(armed);
                self.note_waiting();
            }
        }
    }

    fn note_waiting(&mut self) {
        let waiting = self.open.iter().filter(|a| !a.unforked.is_empty()).count();
        self.peak_waiting = self.peak_waiting.max(waiting);
    }

    /// Puts worker `me`'s freshly armed trial of group `g` on the board,
    /// with `copy` as its waiting copy. If it opens, claims a cell ready
    /// for it on the armed machine `state` itself. Returns that claim and
    /// what is left to free.
    fn post(
        &mut self,
        me: usize,
        g: usize,
        trial: u64,
        state: ArmedState,
        copy: ArmedState,
        shared: u64,
    ) -> (Option<Fork>, Source) {
        self.arming = false;
        let armed = Armed {
            trial,
            owner: me,
            state: Arc::new(copy),
            unforked: self.needing(g, trial).collect(),
            shared,
        };
        if self.open.iter().any(|armed| !armed.unforked.is_empty()) {
            self.ahead = Some(armed);
            return (None, Source::Own(Box::new(state)));
        }
        self.open.push(armed);
        self.note_waiting();
        let e = self.open.len() - 1;
        let ready = self.open[e]
            .unforked
            .iter()
            .position(|&c| self.cells[c].ready_for(trial));
        let Some(k) = ready else {
            return (None, Source::Own(Box::new(state)));
        };
        let mut fork = self.claim(me, e, k);
        let spare = std::mem::replace(&mut fork.source, Source::Own(Box::new(state)));
        (Some(fork), spare)
    }

    /// Takes worker `me`'s drained armed trials that no other worker still
    /// references, or every one of its trials once all cells finished.
    fn take_own(&mut self, me: usize, all: bool) -> Vec<Armed> {
        let mut own: Vec<Armed> = self
            .open
            .extract_if(.., |armed| {
                armed.owner == me
                    && (all || (armed.unforked.is_empty() && Arc::strong_count(&armed.state) == 1))
            })
            .collect();
        if all && self.ahead.as_ref().is_some_and(|armed| armed.owner == me) {
            own.extend(self.ahead.take());
        }
        own
    }

    /// Charges `nanos` of host time to cell `c` while it runs, and returns
    /// its snapshots' wall seconds.
    fn charge(&mut self, c: usize, nanos: u64) -> f64 {
        let cell = &mut self.cells[c];
        cell.busy += nanos;
        self.busy += nanos;
        self.started.elapsed().as_secs_f64() * share(cell.busy, self.busy)
    }

    /// Files sampled cell `c`'s next trial, which took `nanos` of host
    /// time: its result and snapshots.
    fn file(
        &mut self,
        c: usize,
        trial: &SampledTrial,
        result: &TrialResult,
        record: &TrialRecord,
        nanos: u64,
    ) {
        let wall = self.charge(c, nanos);
        let cell = &mut self.cells[c];
        let Some(Fold::Sampled(run)) = &mut cell.fold else {
            unreachable!("a running sampled cell");
        };
        let (done, detected, successes) = run.file(trial, result, record);
        cell.filed = done;
        cell.tally
            .after_trial(done, (detected, successes), wall, &mut cell.snapshots);
        self.finish_if_done(c);
    }

    /// Files sharded cell `c`'s result of `trial`, whose checkout and run
    /// took `(setup, run)` nanoseconds, and folds the filed prefix.
    fn file_sharded(
        &mut self,
        c: usize,
        trial: u64,
        result: TrialResult,
        (setup, run): (u64, u64),
    ) {
        let wall = self.charge(c, setup + run);
        let cell = &mut self.cells[c];
        let Some(Fold::Sharded {
            shard,
            per_trial,
            waiting,
        }) = &mut cell.fold
        else {
            unreachable!("a running sharded cell");
        };
        shard.add_nanos(setup, run);
        waiting.insert(trial, result);
        while let Some(r) = waiting.remove(&cell.filed) {
            shard.add(&r);
            per_trial.push(r);
            cell.filed += 1;
            cell.tally
                .after_trial(cell.filed, shard.counts(), wall, &mut cell.snapshots);
        }
        self.finish_if_done(c);
    }

    /// Finishes cell `c` once it has filed its budget.
    fn finish_if_done(&mut self, c: usize) {
        let cell = &mut self.cells[c];
        if cell.fold.is_none() || cell.filed < cell.spec.trials {
            return;
        }
        let executed = cell.filed;
        let (output, per_trial) = match cell.fold.take().expect("checked above") {
            Fold::Sampled(run) => (CellOutput::Sampled(Box::new(run.finish())), Vec::new()),
            Fold::Sharded {
                shard, per_trial, ..
            } => (
                CellOutput::Sharded(shard.into_result(cell.spec.fault, executed)),
                per_trial,
            ),
        };
        let result = CellResult {
            output,
            executed,
            cache: cell.tally.cache.counters(executed),
            per_trial,
        };
        self.finished[c] = Some((result, std::mem::take(&mut cell.snapshots)));
    }

    /// Takes what the sink may have now, in order: the snapshots of each
    /// finished cell every earlier cell of which has been handed on, with
    /// its final snapshot, then those the first running cell has so far;
    /// and those finished cells.
    fn deliverable(&mut self) -> (Vec<CampaignSnapshot>, Vec<CellResult>) {
        let (mut snapshots, mut cells) = (Vec::new(), Vec::new());
        while let Some((result, mut buffer)) =
            self.finished.get_mut(self.delivered).and_then(Option::take)
        {
            let cell = &self.cells[self.delivered];
            let elapsed = self.started.elapsed().as_secs_f64() - self.handed_wall;
            let wall = elapsed.max(0.0) * share(cell.busy, self.busy - self.handed_busy);
            self.handed_wall += wall;
            self.handed_busy += cell.busy;
            cell.tally.finish(&result, wall, &mut buffer);
            snapshots.append(&mut buffer.snapshots);
            cells.push(result);
            self.delivered += 1;
        }
        if let Some(cell) = self.cells.get_mut(self.delivered) {
            snapshots.append(&mut cell.snapshots.snapshots);
        }
        (snapshots, cells)
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

/// Each worker's mechanisms, built once per cell on first use.
type Mechanisms = [Option<Box<dyn RecoveryMechanism>>];

impl<'a> Stretch<'a> {
    fn lock(&self) -> MutexGuard<'_, Board<'a>> {
        self.board.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Worker `me`: takes actions until every cell has finished. The
    /// worker with `deliver` hands it what [`Board::deliverable`] takes.
    fn work(
        &self,
        me: usize,
        mut deliver: Option<&mut dyn FnMut(Vec<CampaignSnapshot>, Vec<CellResult>)>,
    ) {
        let _abort = AbortOnPanic(self);
        let mut mechanisms: Vec<Option<Box<dyn RecoveryMechanism>>> =
            self.specs.iter().map(|_| None).collect();
        let mut board = self.lock();
        loop {
            if let Some(deliver) = deliver.as_mut() {
                let (snapshots, cells) = board.deliverable();
                if !snapshots.is_empty() || !cells.is_empty() {
                    drop(board);
                    deliver(snapshots, cells);
                    board = self.lock();
                    continue;
                }
            }
            if board.aborted {
                // The panicking worker's payload reaches the caller when
                // the scope joins it.
                return;
            }
            // Armed states are freed on the thread that built them, and
            // outside the lock.
            let drained = board.take_own(me, false);
            if !drained.is_empty() {
                drop(board);
                drop(drained);
                board = self.lock();
                continue;
            }
            match board.next_action(me, self.workers) {
                Action::Arm { group, trial } => {
                    drop(board);
                    self.arm(me, group, trial, &mut mechanisms);
                }
                Action::Fork(fork) => {
                    drop(board);
                    self.wake.notify_all();
                    self.fork(fork, &mut mechanisms);
                }
                Action::Run { trial, cells } => {
                    drop(board);
                    self.run(trial, &cells, &mut mechanisms);
                }
                Action::Wait => {
                    board = self.wake.wait(board).unwrap_or_else(|e| e.into_inner());
                    continue;
                }
                Action::Done => {
                    let own = board.take_own(me, true);
                    drop(board);
                    drop(own);
                    return;
                }
            }
            board = self.lock();
        }
    }

    /// Cell `c`'s mechanism on this worker.
    fn mechanism<'m>(&self, mechanisms: &'m mut Mechanisms, c: usize) -> &'m dyn RecoveryMechanism {
        &**mechanisms[c].get_or_insert_with(|| self.specs[c].mechanism.build())
    }

    /// Runs sharded trial `trial` for member cells `cells` and files each
    /// member's result. The checkout is charged to the first member, each
    /// member's run since the one before it finished to that member.
    fn run(&self, trial: u64, cells: &[usize], mechanisms: &mut Mechanisms) {
        for &c in cells {
            self.mechanism(mechanisms, c);
        }
        let siblings: Vec<Sibling> = cells
            .iter()
            .map(|&c| {
                let spec = self.specs[c];
                Sibling {
                    config: TrialConfig::new(spec.setup, spec.fault, spec.seed + trial),
                    mechanism: mechanisms[c].as_deref().expect("built above"),
                    opts: TrialRunOptions::default(),
                }
            })
            .collect();
        let config = &siblings[0].config;
        let started = Instant::now();
        let (hv, layout) = self
            .engine
            .cache
            .checkout(&config.machine, config.setup, config.seed);
        let setup = elapsed_nanos(started);
        let mut lap = Instant::now();
        let mut results = Vec::with_capacity(cells.len());
        run_trial_group(hv, &layout, &siblings, |k, result, record, hv| {
            drop((record, hv));
            let setup = if k == 0 { setup } else { 0 };
            results.push((cells[k], result, (setup, elapsed_nanos(lap))));
            lap = Instant::now();
        });
        let mut board = self.lock();
        for (c, result, nanos) in results {
            board.file_sharded(c, trial, result, nanos);
        }
        drop(board);
        self.wake.notify_all();
    }

    /// Checks trial `trial` of group `g` out, runs it to its arming step
    /// and forks it for a cell that is ready, putting a waiting copy on
    /// the board if other cells still need it.
    fn arm(&self, me: usize, g: usize, trial: u64, mechanisms: &mut Mechanisms) {
        let started = Instant::now();
        let lead = self.lock().groups[g].cells[0];
        let spec = self.specs[lead];
        let config = TrialConfig::new(spec.setup, spec.fault, spec.seed + trial);
        let (hv, layout) = self
            .engine
            .cache
            .checkout(&config.machine, config.setup, config.seed);
        let lead = Sibling {
            config,
            mechanism: self.mechanism(mechanisms, lead),
            opts: TrialRunOptions::default(),
        };
        let state = ArmedState {
            trial: ArmedTrial::run(hv, &lead),
            layout,
        };
        // The checkout and the shared run are charged to the first cell
        // forked, as in a sharded group; waiting is charged to none.
        let shared = elapsed_nanos(started);
        let whole = self.lock().claim_whole(g, trial);
        if let Some((cell, next)) = whole {
            self.wake.notify_all();
            let source = Source::Own(Box::new(state));
            let fork = Fork {
                cell,
                next,
                source,
                shared,
            };
            self.fork(fork, mechanisms);
            return;
        }
        // Trials drained while this one ran are freed before its copy is
        // made, which may then reuse their memory.
        let drained = self.lock().take_own(me, false);
        drop(drained);
        // The copy that waits holds each vector at its length, without
        // the headroom the armed machine grew.
        let copy = state.clone();
        let (fork, spare) = self.lock().post(me, g, trial, state, copy, shared);
        self.wake.notify_all();
        drop(spare);
        if let Some(fork) = fork {
            self.fork(fork, mechanisms);
        }
    }

    /// Runs a claimed fork and files its result.
    fn fork(&self, fork: Fork, mechanisms: &mut Mechanisms) {
        let Fork {
            cell: c,
            next,
            source,
            shared,
        } = fork;
        let started = Instant::now();
        let ArmedState { trial, layout } = match source {
            Source::Own(state) => *state,
            Source::Shared(state) => ArmedState::clone(&state),
        };
        let sibling = [Sibling {
            config: next.config.clone(),
            mechanism: self.mechanism(mechanisms, c),
            opts: next.opts.clone(),
        }];
        let mut finished = None;
        trial.fork(&layout, &sibling, |_, result, record, _| {
            finished = Some((result, record))
        });
        let (result, record) = finished.expect("the sibling finishes");
        let nanos = elapsed_nanos(started) + shared;
        self.lock().file(c, &next, &result, &record, nanos);
        self.wake.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::boot_cache::BootCache;
    use crate::coverage::{run_sampled_campaign_in, SampledCampaign, SamplingMode};
    use crate::setup::{BenchKind, SetupKind};
    use crate::trial::run_trial_with;
    use nlh_core::MechanismSpec;
    use nlh_hv::HandlerKind;
    use nlh_inject::FaultType;

    fn sharded(name: &str, fault: FaultType, mechanism: &str, trials: u64) -> CampaignSpec {
        let setup = SetupKind::OneAppVm(BenchKind::UnixBench);
        let mut spec = CampaignSpec::new(name, setup, fault, trials);
        spec.mechanism = MechanismSpec::parse(mechanism).unwrap();
        spec
    }

    fn steered(name: &str, fault: FaultType, mechanism: &str, trials: u64) -> CampaignSpec {
        let mut spec = CampaignSpec::new(name, SetupKind::TwoAppVmVswitch, fault, trials);
        spec.mechanism = MechanismSpec::parse(mechanism).unwrap();
        spec.mode = ExecMode::Sampled {
            windows: 4,
            sampling: SamplingMode::CoverageGuided,
            steer_handler: Some(HandlerKind::VirtioMmio),
            depth_cycle: 3,
        };
        spec
    }

    fn without_wall(snapshots: &[CampaignSnapshot]) -> Vec<CampaignSnapshot> {
        let clear = |s: &CampaignSnapshot| CampaignSnapshot {
            wall_secs: 0.0,
            ..s.clone()
        };
        snapshots.iter().map(clear).collect()
    }

    /// A sharded cell's per-trial results as the reference path computes
    /// them: a checkout and `run_trial_with` per trial.
    fn sharded_reference(spec: &CampaignSpec) -> Vec<TrialResult> {
        let cache = BootCache::new();
        let mechanism = spec.mechanism.build();
        (0..spec.trials)
            .map(|i| {
                let config = TrialConfig::new(spec.setup, spec.fault, spec.seed + i);
                let (hv, layout) = cache.checkout(&config.machine, config.setup, config.seed);
                let opts = TrialRunOptions::default();
                run_trial_with(hv, &layout, &config, mechanism.as_ref(), opts).0
            })
            .collect()
    }

    /// A sampled cell as `run_sampled_campaign_in` computes it.
    fn sampled_reference(spec: &CampaignSpec) -> SampledCampaign {
        let ExecMode::Sampled {
            windows,
            sampling,
            steer_handler,
            depth_cycle,
        } = spec.mode
        else {
            unreachable!("a sampled cell");
        };
        let mechanism = spec.mechanism.build();
        run_sampled_campaign_in(
            &BootCache::new(),
            spec.setup,
            spec.fault,
            mechanism.as_ref(),
            spec.seed,
            spec.trials,
            windows,
            sampling,
            steer_handler,
            depth_cycle,
            &mut |_, _, _| false,
        )
    }

    /// Everything a sampled campaign reports.
    fn sampled_fingerprint(s: &SampledCampaign) -> String {
        format!(
            "{} {} {} {:?} {} {:?}",
            s.trials,
            s.successes,
            s.failures,
            s.first_failure_trial,
            s.coverage.to_json(),
            s.first_failure_record,
        )
    }

    /// One stretch on 1, 3 and 4 workers, mixing every kind of group: a
    /// sharded rung group with a snapshot cadence, a sharded pair that
    /// differs in budget and cadence, a steered sampled group whose members
    /// differ in fault, mechanism, budget and cadence, and a lone sampled
    /// cell (its mechanism logs differently, so it joins no group). Each
    /// cell must equal the reference path: per-trial results for a sharded
    /// cell, and results, coverage map and first-failure record for a
    /// sampled one. The snapshot sequence, wall time aside, must not depend
    /// on the worker count, and no more than one open trial may ever wait
    /// with unforked cells. Each cell counts one checkout per trial of its
    /// budget, and the stretch checks out one system per trial of each
    /// group's largest budget.
    #[test]
    fn stretch_on_any_worker_count_equals_the_reference_path() {
        let mut specs = Vec::new();
        for (name, mechanism) in [
            ("every-a", "Rung(SchedConsistency)"),
            ("every-b", "NiLiHype"),
        ] {
            let mut spec = sharded(name, FaultType::Register, mechanism, 5);
            spec.snapshot_every = 2;
            specs.push(spec);
        }
        // One setup, seed and OpSupport, but two budgets and cadences: a
        // group whose second member leaves after its third trial.
        let mut long = sharded("budget-5", FaultType::Code, "NiLiHype", 5);
        long.seed = 7;
        long.snapshot_every = 2;
        specs.push(long);
        let mut short = sharded("budget-3", FaultType::Failstop, "Rung(SchedConsistency)", 3);
        short.seed = 7;
        specs.push(short);
        let no_repair = "Rung(ReactivateTimerEvents)";
        let repair = "Rung(VirtqueueConsistency)";
        let mut every = steered("failstop-every", FaultType::Failstop, repair, 6);
        every.snapshot_every = 2;
        specs.push(every);
        specs.push(steered("code", FaultType::Code, no_repair, 8));
        specs.push(steered("register", FaultType::Register, repair, 5));
        specs.push(steered("lone", FaultType::Failstop, "Rung(Basic)", 3));
        let specs: Vec<&CampaignSpec> = specs.iter().collect();
        let (sharded_specs, sampled_specs) = specs.split_at(4);

        let sharded_want: Vec<Vec<TrialResult>> = sharded_specs
            .iter()
            .map(|spec| sharded_reference(spec))
            .collect();
        let sampled_want: Vec<SampledCampaign> = sampled_specs
            .iter()
            .map(|spec| sampled_reference(spec))
            .collect();
        // One real checkout per trial of each group's largest budget.
        let real_checkouts = 5 + 5 + 8 + 3;

        let mut first_snapshots = None;
        for workers in [1, 3, 4] {
            let engine = CampaignEngine::new();
            let mut sink = MemorySink::default();
            let (cells, peak) = engine.run_stretch(&specs, workers, &mut sink);
            for ((cell, spec), trials) in cells.iter().zip(sharded_specs).zip(&sharded_want) {
                let label = format!("{workers} workers, {}", spec.name);
                assert_eq!(&cell.per_trial, trials, "{label}");
                let counters = cell.cache;
                assert_eq!(
                    counters.hits + counters.misses,
                    spec.trials,
                    "{label}: checkouts"
                );
            }
            for ((cell, spec), want) in cells[4..].iter().zip(sampled_specs).zip(&sampled_want) {
                let label = format!("{workers} workers, {}", spec.name);
                let got = cell.sampled().expect("a sampled cell");
                assert_eq!(
                    sampled_fingerprint(got),
                    sampled_fingerprint(want),
                    "{label}"
                );
            }
            let real = engine.cache().counters();
            assert_eq!(
                real.hits + real.misses,
                real_checkouts,
                "{workers} workers: real checkouts"
            );
            let snapshots = without_wall(&sink.snapshots);
            let first = first_snapshots.get_or_insert_with(|| snapshots.clone());
            assert_eq!(&snapshots, first, "{workers} workers: snapshot sequence");
            assert_eq!(peak, 1, "{workers} workers: open trials waiting at once");
        }
    }
}
