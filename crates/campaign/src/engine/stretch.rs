//! A stretch of independent sampled cells on the engine's workers.
//!
//! A sampled cell runs its trials in order: trial `i`'s trigger window
//! comes from the coverage map of the trials before it. Its run up to the
//! arming step does not: that part depends only on the setup, the trial
//! seed and the mechanism's `OpSupport`. Cells that share those
//! ([`sampled_key`]) form a *sampled sibling group*.
//!
//! Each trial of a group is checked out and run to its arming step once
//! ([`ArmedTrial::run`]), then forked once per cell ([`ArmedTrial::fork`]),
//! each with the window the cell's own coverage map picks. The armed
//! trials wait on the stretch's [`Board`], where any worker forks them:
//! a cell forks trial `i` once it has filed trial `i - 1`, so every cell
//! files its trials in order. Each worker takes the first of these it can
//! ([`Board::next_action`]):
//!
//! 1. **Arm.** While no trial is being armed or waits armed ahead, check
//!    out the group's next trial and run it to its arming step, if
//!    nothing can be forked or the open trial has fewer unforked cells
//!    than twice the workers. The trial opens for forking at once if no
//!    open trial has unforked cells; otherwise it waits armed ahead and
//!    opens when the open one has none.
//! 2. **Fork.** Fork a cell that has filed the trial before out of the
//!    open trial.
//! 3. **Solo.** Run a cell that has no sibling whole, on this worker.
//! 4. **Wait** for a cell to file a trial.
//!
//! Arming ahead while the last cells of a trial are still forked keeps
//! the workers busy; at most one open trial has unforked cells, and one
//! more waits armed ahead. The waiting copy of an armed trial is a clone
//! of it, without the headroom the running machine grew, shared through
//! an [`Arc`]. A fork on another worker clones it and drops its
//! reference at once; only the worker that armed it frees it, so drained
//! states stay on the board until that worker drops them. The worker
//! that arms a trial forks the armed machine itself for a cell that is
//! ready then, and forks the waiting copy in place when it takes the last
//! fork with the only reference. A cell with no sibling runs whole on one
//! worker, as before groups existed.

use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use nlh_core::RecoveryMechanism;

use super::{parallelism, CampaignEngine, CellCache, CellOutput, CellResult, CellTally};
use crate::coverage::{SampledRun, SampledTrial};
use crate::record::TrialRecord;
use crate::setup::SystemLayout;
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
        self.run_stretch(specs, parallelism(), sink).0
    }

    /// [`CampaignEngine::run_sampled_stretch`] on up to `workers` workers.
    /// Also returns the most open armed trials that had unforked cells at
    /// once.
    fn run_stretch(
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
            caches: &caches,
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
                Some(&mut |finished| {
                    for (cell, snapshots) in finished {
                        for snap in &snapshots {
                            sink.snapshot(snap);
                        }
                        cells.push(cell);
                    }
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
    caches: &'a [CellCache],
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
    /// Cells with no sibling, in suite order, and the next to start.
    solos: Vec<usize>,
    next_solo: usize,
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

    /// Whether the cell needs `trial` and has filed every trial before it.
    fn ready_for(&self, trial: u64) -> bool {
        self.needs(trial) && self.run.as_ref().is_some_and(|r| r.filed() == trial)
    }
}

struct Group {
    /// Member cells, in suite order; the first one's mechanism runs the
    /// shared part.
    cells: Vec<usize>,
    /// The next trial to arm.
    next_trial: u64,
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
    /// The checkout and the shared run, charged to the first cell forked.
    shared: Duration,
}

/// What a worker does next.
enum Action {
    Arm {
        group: usize,
        trial: u64,
    },
    Fork(Fork),
    Solo(usize),
    Wait,
    /// Every cell has finished.
    Done,
}

/// A cell's claim on an armed trial.
struct Fork {
    cell: usize,
    next: SampledTrial,
    source: Source,
    /// Host time charged to this fork besides its own run.
    shared: Duration,
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
            open: Vec::new(),
            ahead: None,
            arming: false,
            peak_waiting: 0,
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

    /// The first action in the module docs' list that worker `me` of
    /// `workers` can take, claimed.
    fn next_action(&mut self, me: usize, workers: usize) -> Action {
        let cells = &self.cells;
        for armed in self.open.iter_mut().chain(&mut self.ahead) {
            armed.unforked.retain(|&c| cells[c].needs(armed.trial));
        }
        self.open_ahead();
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
            if let Some((group, trial)) = self.next_trial() {
                self.arming = true;
                return Action::Arm { group, trial };
            }
        }
        if let Some((e, k)) = fork {
            return Action::Fork(self.claim(me, e, k));
        }
        if let Some(&c) = self.solos.get(self.next_solo) {
            self.next_solo += 1;
            return Action::Solo(c);
        }
        if self.finished[self.delivered..].iter().all(Option::is_some) {
            Action::Done
        } else {
            Action::Wait
        }
    }

    /// The next trial of the first group some cell of which still needs
    /// it, taken.
    fn next_trial(&mut self) -> Option<(usize, u64)> {
        let cells = &self.cells;
        let (g, group) = self.groups.iter_mut().enumerate().find(|(_, group)| {
            group
                .cells
                .iter()
                .any(|&c| cells[c].needs(group.next_trial))
        })?;
        group.next_trial += 1;
        Some((g, group.next_trial - 1))
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
        let next = self.cells[cell]
            .run
            .as_ref()
            .expect("a ready cell")
            .next_trial();
        Fork {
            cell,
            next,
            source,
            shared,
        }
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
        shared: Duration,
    ) -> (Option<Fork>, Source) {
        self.arming = false;
        let cells = &self.cells;
        let armed = Armed {
            trial,
            owner: me,
            state: Arc::new(copy),
            unforked: self.groups[g]
                .cells
                .iter()
                .copied()
                .filter(|&c| cells[c].needs(trial))
                .collect(),
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

    /// Worker `me`: takes actions until every cell has finished. The
    /// worker with `deliver` hands it each newly deliverable run of
    /// finished cells.
    fn work(&self, me: usize, mut deliver: Option<&mut dyn FnMut(Vec<Finished>)>) {
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
                Action::Solo(c) => {
                    drop(board);
                    let mut buffer = MemorySink::default();
                    let cell = self
                        .engine
                        .run_sampled(self.specs[c], self.caches[c], &mut buffer);
                    self.lock().finished[c] = Some((cell, buffer.snapshots));
                    self.wake.notify_all();
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

    /// Checks trial `trial` of group `g` out, runs it to its arming step
    /// and puts it on the board, forking it first for a cell that is
    /// ready.
    fn arm(
        &self,
        me: usize,
        g: usize,
        trial: u64,
        mechanisms: &mut [Option<Box<dyn RecoveryMechanism>>],
    ) {
        let started = Instant::now();
        let lead = self.lock().groups[g].cells[0];
        let spec = self.specs[lead];
        let mechanism = mechanisms[lead].get_or_insert_with(|| spec.mechanism.build());
        let config = TrialConfig::new(spec.setup, spec.fault, spec.seed + trial);
        let (hv, layout) = self
            .engine
            .cache
            .checkout(&config.machine, config.setup, config.seed);
        let lead = Sibling {
            config,
            mechanism: mechanism.as_ref(),
            opts: TrialRunOptions::default(),
        };
        let state = ArmedState {
            trial: ArmedTrial::run(hv, &lead),
            layout,
        };
        // The checkout and the shared run are charged to the first cell
        // forked, as in a sharded group; waiting is charged to none.
        let shared = started.elapsed();
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
    fn fork(&self, fork: Fork, mechanisms: &mut [Option<Box<dyn RecoveryMechanism>>]) {
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
        let spec = self.specs[c];
        let mechanism = mechanisms[c].get_or_insert_with(|| spec.mechanism.build());
        let sibling = [Sibling {
            config: next.config.clone(),
            mechanism: mechanism.as_ref(),
            opts: next.opts.clone(),
        }];
        let mut finished = None;
        trial.fork(&layout, &sibling, |_, result, record, _| {
            finished = Some((result, record))
        });
        let (result, record) = finished.expect("the sibling finishes");
        let secs = started.elapsed() + shared;
        self.lock()
            .file(c, &next, &result, &record, secs.as_secs_f64());
        self.wake.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coverage::SamplingMode;
    use crate::setup::SetupKind;
    use crate::spec::StopPolicy;
    use nlh_core::MechanismSpec;
    use nlh_hv::HandlerKind;
    use nlh_inject::FaultType;

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

    /// Everything a cell reports but its wall time.
    fn fingerprint(cell: &CellResult) -> String {
        let s = cell.sampled().expect("a sampled cell");
        format!(
            "{:?} {:?} {:?} {} {} {} {:?} {} {:?}",
            cell.executed,
            cell.stopped_at,
            cell.cache,
            s.trials,
            s.successes,
            s.failures,
            s.first_failure_trial,
            s.coverage.to_json(),
            s.first_failure_record,
        )
    }

    /// One stretch on 1, 3 and 4 workers: a steered group whose cells
    /// differ in fault and mechanism, with a member that stops at
    /// confidence and one with a snapshot cadence, beside a cell whose
    /// mechanism logs differently (`Rung(Basic)`) and so runs solo. Each
    /// run must report what the cells run one by one report, and no more
    /// than one open trial may ever wait with unforked cells.
    #[test]
    fn stretch_on_any_worker_count_equals_cells_run_one_by_one() {
        let no_repair = "Rung(ReactivateTimerEvents)";
        let repair = "Rung(VirtqueueConsistency)";
        let mut every = steered("failstop-every", FaultType::Failstop, repair, 6);
        every.snapshot_every = 2;
        let mut stop = steered("code-stop", FaultType::Code, no_repair, 8);
        stop.stop = StopPolicy::AtConfidence {
            halfwidth: 0.45,
            min_detected: 2,
            check_every: 1,
        };
        let specs = [
            steered("failstop", FaultType::Failstop, no_repair, 6),
            every,
            steered("register", FaultType::Register, repair, 5),
            stop,
            steered("solo", FaultType::Failstop, "Rung(Basic)", 3),
        ];
        let specs: Vec<&CampaignSpec> = specs.iter().collect();

        let alone = CampaignEngine::new();
        let mut alone_sink = MemorySink::default();
        let alone_cells: Vec<CellResult> = specs
            .iter()
            .map(|spec| alone.run_spec(spec, &mut alone_sink))
            .collect();
        let stopped = alone_cells[3].stopped_at;
        assert!(
            stopped.is_some_and(|n| n < 8),
            "the stopping cell stops partway: {stopped:?}"
        );
        let want: Vec<String> = alone_cells.iter().map(fingerprint).collect();
        for workers in [1, 3, 4] {
            let engine = CampaignEngine::new();
            let mut sink = MemorySink::default();
            let (cells, peak) = engine.run_stretch(&specs, workers, &mut sink);
            let got: Vec<String> = cells.iter().map(fingerprint).collect();
            assert_eq!(got, want, "{workers} workers");
            assert_eq!(
                without_wall(&sink.snapshots),
                without_wall(&alone_sink.snapshots),
                "{workers} workers: snapshot sequence"
            );
            assert_eq!(peak, 1, "{workers} workers: open trials waiting at once");
        }
    }
}
