//! Coverage-guided fault campaigns: steer the trigger toward
//! under-explored (handler × fault-window) cells.
//!
//! A uniform campaign draws the second-level trigger budget uniformly from
//! `[0, MAX_TRIGGER_OPS)` on every trial, so it resamples the
//! hottest handler contexts over and over and reaches rare trigger strata
//! only by luck. The guided mode maintains a [`CoverageMap`] over
//! (handler family × trigger-ops window) cells and, before each trial,
//! picks the window with the best exploration score — least-sampled
//! first, with a bonus for windows that have already produced residual
//! failures — then narrows the injector's budget draw to that stratum via
//! [`TrialRunOptions::trigger_ops`]. Every window is visited within the
//! first `windows` trials (uniform sampling needs a coupon-collector's
//! wait for the same guarantee), and once a failure-prone stratum is
//! found it is revisited preferentially.
//!
//! Steering is deterministic: same base seed, same trial sequence. Each
//! trial remains individually replayable because its [`TrialRecord`]
//! stores the steered range.

use std::fmt;
use std::fmt::Write as _;

use nlh_core::RecoveryMechanism;
use nlh_hv::HandlerKind;
use nlh_inject::FaultType;

use crate::boot_cache::BootCache;
use crate::classify::TrialClass;
use crate::record::TrialRecord;
use crate::setup::SetupKind;
use crate::trial::{run_trial_with, TrialConfig, TrialResult, TrialRunOptions, MAX_TRIGGER_OPS};

/// Default number of trigger-ops windows (strata) on the coverage map's
/// second axis.
pub const DEFAULT_OPS_WINDOWS: usize = 8;

/// A (handler family × trigger-ops window) coverage map.
///
/// Rows are [`HandlerKind`]s; columns split `[0, MAX_TRIGGER_OPS)` into
/// equal windows. `observe` files each injection under the cell it
/// actually landed in (the steered window and the observed handler).
#[derive(Debug, Clone)]
pub struct CoverageMap {
    windows: usize,
    /// Injections observed per cell, handler-major.
    counts: Vec<u64>,
    /// Residual failures per cell, handler-major.
    failures: Vec<u64>,
    /// Trials assigned to each window by the steering loop.
    assigned: Vec<u64>,
    /// Residual failures per assigned window.
    window_failures: Vec<u64>,
    /// Trials whose trigger never fired (no injection to file).
    misses: u64,
    trials: u64,
}

impl CoverageMap {
    /// An empty map with `windows` trigger-ops strata.
    ///
    /// # Panics
    ///
    /// Panics if `windows` is 0 or exceeds `MAX_TRIGGER_OPS`.
    pub fn new(windows: usize) -> Self {
        assert!(windows > 0 && (windows as u64) <= MAX_TRIGGER_OPS);
        CoverageMap {
            windows,
            counts: vec![0; HandlerKind::ALL.len() * windows],
            failures: vec![0; HandlerKind::ALL.len() * windows],
            assigned: vec![0; windows],
            window_failures: vec![0; windows],
            misses: 0,
            trials: 0,
        }
    }

    /// Number of trigger-ops windows.
    pub fn windows(&self) -> usize {
        self.windows
    }

    /// Total trials observed.
    pub fn trials(&self) -> u64 {
        self.trials
    }

    /// Trials whose trigger never fired.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// The window an ops budget falls into.
    pub fn window_of(&self, ops_budget: u64) -> usize {
        ((ops_budget * self.windows as u64) / MAX_TRIGGER_OPS).min(self.windows as u64 - 1) as usize
    }

    /// The ops range covered by `window`.
    pub fn window_range(&self, window: usize) -> (u64, u64) {
        let span = MAX_TRIGGER_OPS / self.windows as u64;
        let lo = window as u64 * span;
        let hi = if window + 1 == self.windows {
            MAX_TRIGGER_OPS
        } else {
            lo + span
        };
        (lo, hi)
    }

    /// Injections observed in a cell.
    pub fn cell(&self, handler: HandlerKind, window: usize) -> u64 {
        self.counts[handler.index() * self.windows + window]
    }

    /// Residual failures observed in a cell.
    pub fn cell_failures(&self, handler: HandlerKind, window: usize) -> u64 {
        self.failures[handler.index() * self.windows + window]
    }

    /// Number of cells with at least one observation.
    pub fn covered_cells(&self) -> usize {
        self.counts.iter().filter(|c| **c > 0).count()
    }

    /// Files one trial: where its injection landed (if it fired) and
    /// whether it ended in residual failure. `assigned_window` is the
    /// stratum the steering loop chose (equal to the observed window when
    /// steering; the budget's own window under uniform sampling).
    pub fn observe(
        &mut self,
        assigned_window: usize,
        injection: Option<(HandlerKind, u64)>,
        failed: bool,
    ) {
        self.trials += 1;
        self.assigned[assigned_window] += 1;
        if failed {
            self.window_failures[assigned_window] += 1;
        }
        match injection {
            Some((handler, ops_budget)) => {
                let w = self.window_of(ops_budget);
                let idx = handler.index() * self.windows + w;
                self.counts[idx] += 1;
                if failed {
                    self.failures[idx] += 1;
                }
            }
            None => self.misses += 1,
        }
    }

    /// The window the steering loop should try next: the best ratio of
    /// observed failures to assigned trials, i.e. least-sampled windows
    /// first (pure round-robin exploration until something fails) and
    /// failure-prone windows preferentially afterwards. Ties break to the
    /// lowest index, so steering is deterministic.
    pub fn next_window(&self) -> usize {
        let mut best = 0usize;
        let mut best_score = f64::MIN;
        for w in 0..self.windows {
            let score = (1.0 + self.window_failures[w] as f64) / (1.0 + self.assigned[w] as f64);
            if score > best_score {
                best = w;
                best_score = score;
            }
        }
        best
    }

    /// Renders the map as JSON (hand-rolled: the workspace `serde` is a
    /// no-op shim). Cells are handler-major.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        let _ = writeln!(out, "  \"max_trigger_ops\": {},", MAX_TRIGGER_OPS);
        let _ = writeln!(out, "  \"windows\": {},", self.windows);
        let _ = writeln!(out, "  \"trials\": {},", self.trials);
        let _ = writeln!(out, "  \"misses\": {},", self.misses);
        let _ = writeln!(out, "  \"covered_cells\": {},", self.covered_cells());
        let _ = writeln!(out, "  \"total_cells\": {},", self.counts.len());
        out.push_str("  \"handlers\": {\n");
        for (i, h) in HandlerKind::ALL.iter().enumerate() {
            let row: Vec<String> = (0..self.windows)
                .map(|w| format!("[{},{}]", self.cell(*h, w), self.cell_failures(*h, w)))
                .collect();
            let comma = if i + 1 == HandlerKind::ALL.len() {
                ""
            } else {
                ","
            };
            let _ = writeln!(out, "    \"{}\": [{}]{}", h, row.join(","), comma);
        }
        out.push_str("  }\n}\n");
        out
    }
}

impl fmt::Display for CoverageMap {
    /// A fixed-width (handler × window) table of `count/failures`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:<16}", "handler")?;
        for w in 0..self.windows {
            let (lo, hi) = self.window_range(w);
            write!(f, " {:>9}", format!("{lo}..{hi}"))?;
        }
        writeln!(f)?;
        for h in HandlerKind::ALL {
            write!(f, "{:<16}", h.to_string())?;
            for w in 0..self.windows {
                let cell = format!("{}/{}", self.cell(h, w), self.cell_failures(h, w));
                write!(f, " {cell:>9}")?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

/// How a sampled campaign draws its trigger points.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SamplingMode {
    /// Uniform draws over the full trigger space (the historical
    /// behaviour).
    Uniform,
    /// Coverage-guided steering via [`CoverageMap::next_window`].
    CoverageGuided,
}

/// The result of [`run_sampled_campaign_in`].
#[derive(Debug)]
pub struct SampledCampaign {
    /// The sampling mode that ran.
    pub mode: SamplingMode,
    /// Trials executed.
    pub trials: u64,
    /// 0-based index of the first residual-failure trial, if any.
    pub first_failure_trial: Option<u64>,
    /// Total residual failures (detected, recovery failed).
    pub failures: u64,
    /// Total recovery successes.
    pub successes: u64,
    /// The final coverage map.
    pub coverage: CoverageMap,
    /// The record of the first residual failure (replayable).
    pub first_failure_record: Option<TrialRecord>,
}

/// Runs a sequential, deterministic fault campaign in either sampling
/// mode, filing every trial in a coverage map, one trial at a time: the
/// reference that the engine's sampled cells ([`crate::ExecMode::Sampled`])
/// must equal, however the engine shares and forks their trials.
///
/// Trial `i` uses seed `base_seed + i` and checks its system out of
/// `cache`, which reseeds it, so results are independent of what else the
/// cache has served. Under guided sampling the trial's trigger-ops draw is
/// narrowed to the steered window, so the same seed corpus explores the
/// trigger space in a different order than uniform sampling —
/// strata-first instead of luck-first.
///
/// With `steer_handler` set, every trial's armed injector is held until
/// the struck CPU executes inside that handler family (see
/// [`nlh_inject::Injector::steer_to_handler`]); the device-heavy campaigns
/// use `HandlerKind::VirtioMmio` to land every fault
/// mid-virtqueue-transaction. Trial `i` is then injected
/// `i % depth_cycle` micro-ops *after* the struck CPU enters the handler
/// (see [`nlh_inject::Injector::with_steer_depth`]), so the corpus sweeps
/// the handler's programs instead of always striking their first op;
/// `depth_cycle == 1` strikes every trial at depth 0.
///
/// `after_trial` is called once per completed trial with
/// `(trials_done, detected, successes)`; returning `true` halts the
/// campaign there, and the returned [`SampledCampaign::trials`] records
/// the executed count. Every caller in this workspace returns `false`;
/// the hook and its signature stay because `campaign_bench`'s tracer
/// times each trial through it.
#[allow(clippy::too_many_arguments)]
pub fn run_sampled_campaign_in(
    cache: &BootCache,
    setup: SetupKind,
    fault: FaultType,
    mechanism: &dyn RecoveryMechanism,
    base_seed: u64,
    trials: u64,
    windows: usize,
    mode: SamplingMode,
    steer_handler: Option<HandlerKind>,
    depth_cycle: u64,
    after_trial: &mut dyn FnMut(u64, u64, u64) -> bool,
) -> SampledCampaign {
    let mut run = SampledRun::new(
        setup,
        fault,
        base_seed,
        windows,
        mode,
        steer_handler,
        depth_cycle,
    );
    while run.filed() < trials {
        let trial = run.next_trial();
        let config = &trial.config;
        let (hv, layout) = cache.checkout(&config.machine, config.setup, config.seed);
        let (result, record, _) =
            run_trial_with(hv, &layout, config, mechanism, trial.opts.clone());
        let (done, detected, successes) = run.file(&trial, &result, &record);
        if after_trial(done, detected, successes) {
            break;
        }
    }
    run.finish()
}

/// One sampled cell in flight: its coverage map and counts, advanced one
/// trial at a time in trial order. Trial `i`'s options depend on the
/// trials before it only through this state, so a caller can run trial
/// `i` once trial `i - 1` is filed, however it runs the trial itself.
#[derive(Debug)]
pub(crate) struct SampledRun {
    setup: SetupKind,
    fault: FaultType,
    base_seed: u64,
    steer_handler: Option<HandlerKind>,
    depth_cycle: u64,
    out: SampledCampaign,
    detected: u64,
}

/// Trial `i` of a sampled cell, as its campaign steers it.
pub(crate) struct SampledTrial {
    pub(crate) config: TrialConfig,
    pub(crate) opts: TrialRunOptions,
    /// The window the steering loop chose (guided sampling only).
    assigned: Option<usize>,
}

impl SampledRun {
    pub(crate) fn new(
        setup: SetupKind,
        fault: FaultType,
        base_seed: u64,
        windows: usize,
        mode: SamplingMode,
        steer_handler: Option<HandlerKind>,
        depth_cycle: u64,
    ) -> Self {
        SampledRun {
            setup,
            fault,
            base_seed,
            steer_handler,
            depth_cycle,
            out: SampledCampaign {
                mode,
                trials: 0,
                first_failure_trial: None,
                failures: 0,
                successes: 0,
                coverage: CoverageMap::new(windows),
                first_failure_record: None,
            },
            detected: 0,
        }
    }

    /// The next trial: seed `base_seed + i`, window and steer depth.
    pub(crate) fn next_trial(&self) -> SampledTrial {
        let i = self.out.trials;
        let (assigned, trigger_ops) = match self.out.mode {
            SamplingMode::Uniform => (None, None),
            SamplingMode::CoverageGuided => {
                let w = self.out.coverage.next_window();
                (Some(w), Some(self.out.coverage.window_range(w)))
            }
        };
        SampledTrial {
            config: TrialConfig::new(self.setup, self.fault, self.base_seed + i),
            opts: TrialRunOptions {
                trigger_ops,
                steer_handler: self.steer_handler,
                steer_depth: i % self.depth_cycle.max(1),
                ..TrialRunOptions::default()
            },
            assigned,
        }
    }

    /// Files the next trial, planned as `trial`, and returns the cell's
    /// `(trials_done, detected, successes)`.
    pub(crate) fn file(
        &mut self,
        trial: &SampledTrial,
        result: &TrialResult,
        record: &TrialRecord,
    ) -> (u64, u64, u64) {
        let out = &mut self.out;
        let failed = matches!(result.class, TrialClass::RecoveryFailure(_));
        if failed || result.class.is_success() {
            self.detected += 1;
        }
        if result.class.is_success() {
            out.successes += 1;
        }
        if failed {
            out.failures += 1;
            if out.first_failure_trial.is_none() {
                out.first_failure_trial = Some(out.trials);
                out.first_failure_record = Some(record.clone());
            }
        }
        let injection = record.injection.map(|p| (p.handler, p.ops_budget));
        let assigned = trial
            .assigned
            .unwrap_or_else(|| out.coverage.window_of(record.ops_budget));
        out.coverage.observe(assigned, injection, failed);
        out.trials += 1;
        (out.trials, self.detected, out.successes)
    }

    /// Trials filed so far.
    pub(crate) fn filed(&self) -> u64 {
        self.out.trials
    }

    /// The campaign over the trials filed.
    pub(crate) fn finish(self) -> SampledCampaign {
        self.out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn window_partition_covers_trigger_space() {
        let map = CoverageMap::new(DEFAULT_OPS_WINDOWS);
        let mut expected_lo = 0;
        for w in 0..map.windows() {
            let (lo, hi) = map.window_range(w);
            assert_eq!(lo, expected_lo, "window {w} must start where {w}-1 ended");
            assert!(lo < hi);
            expected_lo = hi;
            for b in [lo, hi - 1] {
                assert_eq!(map.window_of(b), w, "budget {b}");
            }
        }
        assert_eq!(expected_lo, MAX_TRIGGER_OPS);
    }

    #[test]
    fn steering_explores_all_windows_first() {
        let mut map = CoverageMap::new(4);
        let mut seen = Vec::new();
        for _ in 0..4 {
            let w = map.next_window();
            seen.push(w);
            map.observe(
                w,
                Some((HandlerKind::TimerInterrupt, map.window_range(w).0)),
                false,
            );
        }
        seen.sort_unstable();
        assert_eq!(
            seen,
            vec![0, 1, 2, 3],
            "each window probed once before repeats"
        );
    }

    #[test]
    fn steering_prefers_failing_windows() {
        let mut map = CoverageMap::new(4);
        // One failure in window 2, one success everywhere else.
        for w in 0..4 {
            map.observe(
                w,
                Some((HandlerKind::Hypercall, map.window_range(w).0)),
                w == 2,
            );
        }
        assert_eq!(map.next_window(), 2);
    }

    #[test]
    fn observe_files_cells_and_misses() {
        let mut map = CoverageMap::new(8);
        map.observe(0, Some((HandlerKind::Scheduler, 10)), true);
        map.observe(3, None, false);
        assert_eq!(map.cell(HandlerKind::Scheduler, 0), 1);
        assert_eq!(map.cell_failures(HandlerKind::Scheduler, 0), 1);
        assert_eq!(map.misses(), 1);
        assert_eq!(map.trials(), 2);
        assert_eq!(map.covered_cells(), 1);
    }

    #[test]
    fn json_and_table_render() {
        let mut map = CoverageMap::new(4);
        map.observe(1, Some((HandlerKind::Hypercall, 600)), false);
        let json = map.to_json();
        assert!(json.contains("\"windows\": 4"));
        assert!(json.contains("\"Hypercall\""));
        let table = map.to_string();
        assert!(table.contains("TimerInterrupt"));
    }
}
